import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trkm.errors import DimensionMismatch
from trkm.kernels import KernelSpec, gaussian, gram, linear
from trkm.solver import KernelBlock, row_blocks

from oracles import kernel_eval


def test_gaussian_same_point_is_one():
    assert kernel_eval(gaussian(0.7), [1.0, -2.0], [1.0, -2.0]) == 1.0


def test_gaussian_unit_sigma_known_value():
    v = kernel_eval(gaussian(1.0), [0.0, 0.0], [1.0, 1.0])
    assert v == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_linear_dot_product():
    assert kernel_eval(linear(), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_eval_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_eval(linear(), [1.0], [1.0, 2.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("cubic")
    linear()  # sigma not required


def test_gram_same_side_symmetric_unit_diagonal(rng):
    x = rng.normal(size=(9, 4))
    g = gram(gaussian(1.3), x, x)
    assert np.array_equal(g, g.T)
    assert np.array_equal(np.diag(g), np.ones(9))


def test_gram_matches_eval_loop(rng):
    for m in (5, 8, 13):
        left = rng.normal(size=(2, m))
        right = rng.normal(size=(3, m))
        for spec in (gaussian(0.8), linear()):
            g = gram(spec, left, right)
            assert g.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert g[i, j] == kernel_eval(spec, left[i], right[j])


def test_gram_linear_identity_rows():
    g = gram(linear(), np.eye(2), np.eye(2))
    assert np.array_equal(g, np.eye(2))


def test_gram_rejects_feature_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        gram(linear(), rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))


@pytest.mark.parametrize("family", ["gaussian", "linear"])
def test_gram_transpose_exactness(rng, family):
    spec = gaussian(0.9) if family == "gaussian" else linear()
    a = rng.normal(size=(11, 3))
    b = rng.normal(size=(17, 3))
    assert np.array_equal(gram(spec, a, b), gram(spec, b, a).T)


def test_gaussian_gram_positive_semidefinite(rng):
    for n in (5, 20, 50):
        x = rng.normal(size=(n, 4))
        g = gram(gaussian(1.1), x, x)
        smallest = np.linalg.eigvalsh(g).min()
        assert smallest >= -1e-8


def test_gaussian_values_in_unit_interval(rng):
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=(8, 3))
    g = gram(gaussian(2.0), x, y)
    assert (g > 0).all() and (g <= 1).all()


@settings(max_examples=50)
@given(
    base=st.floats(-3, 3),
    step1=st.floats(0.01, 2),
    step2=st.floats(0.01, 2),
    sigma=st.floats(0.2, 4),
)
def test_gaussian_strictly_decreases_with_distance(base, step1, step2, sigma):
    x = np.array([base])
    near = np.array([base + step1])
    far = np.array([base + step1 + step2])
    spec = gaussian(sigma)
    assert kernel_eval(spec, x, near) > kernel_eval(spec, x, far)


def test_gram_empty_left_side(rng):
    g = gram(gaussian(1.0), np.empty((0, 3)), rng.normal(size=(4, 3)))
    assert g.shape == (0, 4)


@pytest.mark.parametrize("spec", [gaussian(0.7), linear()], ids=["gaussian", "linear"])
@pytest.mark.parametrize("n", [9, 601])
def test_a_bordered_gram_is_the_whole_gram_bitwise(spec, n):
    # built a block of rows per gram call; 601 rows are 12 blocks of 48 and one of 25
    x = np.random.default_rng(n).normal(size=(n, 5))
    step = row_blocks(n)[0][1]
    assert n == 9 or (len(row_blocks(n)) > 1 and n % step)
    store = KernelBlock.of(spec, x).store
    assert store.shape == (n + 1, n + 1)
    assert np.ascontiguousarray(store[:n, :n]).tobytes() == gram(spec, x, x).tobytes()


@pytest.mark.parametrize("n", [1, 2, 47, 214, 313, 600, 625, 2000])
def test_row_blocks_cover_the_rows_in_order_with_no_lone_last_row(n):
    # 313 and 625 rows are blocks of 104 and 48 rows and one row over
    blocks = row_blocks(n)
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]] and blocks[-1][1] == n
    assert all((stop - start) % 8 == 0 for start, stop in blocks[:-1])
    assert n == 1 or blocks[-1][1] - blocks[-1][0] > 1
