"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A table or enumeration would exceed the configured size cap."""


class DegenerateClassError(ValueError):
    """Every point of a fixed-derivative class lies in the character's zero
    locus: chi(w + g) = 0, hence mu(a + gM) = 0, across the class, so the
    identity mu = S * chi(w + g) shows no sign there."""
