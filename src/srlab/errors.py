"""Shared exception types, and the one rule behind every desk-scale guard."""


class GuardExceeded(RuntimeError):
    """A desk-scale guard was hit; the message names the override to use."""


class VoidComplexError(ValueError):
    """Operation is undefined for the void complex (the one with no faces)."""


def check_guard(guard: str, size: int, limit: int, override: bool, *, facets: bool = False) -> None:
    """Raise GuardExceeded when size is above limit and override is off.

    size counts the ground set, or the facets when facets is set; guard names
    the guard in the message.
    """
    if size > limit and not override:
        subject = f"{size} facets exceed" if facets else f"ground set {size} exceeds"
        raise GuardExceeded(f"{subject} {guard} guard {limit}; pass override=True (CLI: --override-guards)")
