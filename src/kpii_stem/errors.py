"""Exception hierarchy for kpii_stem."""


class KPStemError(Exception):
    """Base class for all kpii_stem errors."""


class DomainError(KPStemError):
    """Non-finite or otherwise invalid numeric input."""


class DegenerateParameterError(KPStemError):
    """A parameter combination makes a required denominator vanish."""


class InadmissibleParameterError(KPStemError):
    """Parameters violate an admissibility constraint (e.g. a12 <= 0)."""


class IndeterminateResonanceError(KPStemError):
    """Interaction coefficient is 0/0: resonance type cannot be decided."""


class UnsupportedDerivativeError(KPStemError):
    """Requested derivative multi-index is outside the supported range."""


class UnsupportedCaseError(KPStemError):
    """Operation is not defined for this resonance case (e.g. generic)."""


class DegenerateLineError(KPStemError):
    """Line has a vanishing normal vector."""


class InternalConsistencyError(KPStemError):
    """Two independent computation paths disagree beyond tolerance."""


class AnchorNotFoundError(KPStemError):
    """No section anchor satisfies the junction-distance constraint."""


class RidgeNotFoundError(KPStemError):
    """Ridge refinement failed on too many scan lines."""


class InadmissibleFamilyError(KPStemError):
    """A limit family leaves the admissible parameter region en route."""
