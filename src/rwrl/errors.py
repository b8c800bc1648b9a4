"""Exception hierarchy for the rwrl toolkit."""


class RwrlError(Exception):
    """Base class for all rwrl errors."""


# --- image decoding ---

class MalformedHeaderError(RwrlError):
    """Image header (or ASCII body) cannot be parsed."""


class UnsupportedFormatError(RwrlError):
    """Recognized container but an unsupported variant (e.g. color)."""


class TruncatedDataError(RwrlError):
    """Header promises more pixel data than the file contains."""


class EmptyImageError(RwrlError):
    """Binary image has no foreground pixel."""


# --- geometry / features ---

class WrongDimensionsError(RwrlError):
    """Image does not have the required dimensions."""


class LengthMismatchError(RwrlError):
    """Vector lengths disagree."""


class FeatureFileError(RwrlError):
    """Feature file is malformed, or its values overflow the arithmetic."""


# --- classifiers ---

class SingleClassError(RwrlError):
    """Training data contains fewer than two classes."""


class EmptyDataError(RwrlError):
    """Training data is empty."""


class DimensionMismatchError(RwrlError):
    """Feature dimension disagrees with the model."""


class NonFiniteKernelError(RwrlError):
    """A kernel matrix or SVM decision holds NaN or infinite values."""


class EmptyModelError(RwrlError):
    """Nearest-neighbor model holds no samples."""


class CorruptModelError(RwrlError):
    """Model file is truncated or structurally invalid."""


class VersionMismatchError(RwrlError):
    """Model file carries an unsupported version tag."""


# --- evaluation ---

class TooFewSamplesError(RwrlError):
    """A class has too few samples for the requested split."""


class UnknownLabelError(RwrlError):
    """A label is not in the declared class list."""


class DegenerateMatrixError(RwrlError):
    """Confusion matrix has a class with no true samples."""


class EmptyMatrixError(RwrlError):
    """Confusion matrix has no counts at all."""


# --- datasets ---

class MissingClassDirError(RwrlError):
    """Dataset root lacks one of the digit subdirectories."""


class NoImagesError(RwrlError):
    """Dataset tree contains no image files."""
