"""Exception types shared across the package."""


class GgqdError(ValueError):
    """Base class for validation and contract violations."""


class NonHermitianError(GgqdError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class TraceNotOneError(GgqdError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPositiveError(GgqdError):
    """Matrix has an eigenvalue below -tolerance and positivity was required."""


class NotUnitaryError(GgqdError):
    """Matrix is not unitary within tolerance."""


class UnknownFamilyError(GgqdError):
    """State family tag is not recognized."""


class ParameterOutOfRangeError(GgqdError):
    """A family parameter is missing, unknown, or outside its documented range."""


class ProbabilitiesNotNormalizedError(GgqdError):
    """Probability weights do not sum to 1 within tolerance."""


class NonUnitDirectionError(GgqdError):
    """Measurement direction is not a unit vector within tolerance."""


class NonFiniteResultError(GgqdError):
    """f_max or trace_cc overflows float64: the correlation data are too large."""


class StateFormatError(ValueError):
    """State file content does not match the JSON schema.

    Deliberately not a GgqdError: the CLI maps schema problems to the
    parse-failure exit code, not the validation one.
    """
