"""Exception types shared across the package.

The CLI maps these onto exit codes: data-shaped problems (bad files, bad
columns, mismatched shapes, degenerate splits) exit with 3, numerical
failures (singular systems, degenerate statistics) exit with 4.
"""


class TrkmError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TrkmError):
    """Array shapes are inconsistent with each other or with a model."""


class SingularSystem(TrkmError):
    """A bordered linear system is numerically singular (degenerate eta/gamma)."""


class EmptyClass(TrkmError):
    """One of the two class matrices has no samples."""


class DegenerateSplit(TrkmError):
    """A train/test split would leave a side empty or a class absent from train."""


class TooFewSamples(TrkmError):
    """Fewer samples than cross-validation folds."""


class DegenerateStatistic(TrkmError):
    """The Friedman F statistic denominator is non-positive."""


class EmptyInput(TrkmError):
    """A metric was asked to score zero samples."""


class ParseError(TrkmError):
    """A CSV file could not be parsed; the message locates the row/column."""


class NonNumericFeature(ParseError):
    """A feature cell did not parse as a number."""


class MoreThanTwoClasses(TrkmError):
    """A classification file contains more than two distinct labels."""


class MissingColumn(TrkmError):
    """The requested label/target column does not exist."""


class IoError(TrkmError):
    """A model file could not be read or written."""


class VersionMismatch(TrkmError):
    """A model file has an unsupported format version."""


class CorruptModel(TrkmError):
    """A model file failed its checksum or structure checks."""


class FeatureCountMismatch(TrkmError):
    """Prediction data has a different feature count than the model."""


# Exit-code groups used by the CLI.
DATA_ERRORS = (
    ParseError,
    MoreThanTwoClasses,
    MissingColumn,
    IoError,
    VersionMismatch,
    CorruptModel,
    FeatureCountMismatch,
    DegenerateSplit,
    TooFewSamples,
    EmptyClass,
    EmptyInput,
    DimensionMismatch,
)

NUMERIC_ERRORS = (SingularSystem, DegenerateStatistic)
