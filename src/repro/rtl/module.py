"""Hierarchical design modules with scoped condition coverage."""

from __future__ import annotations

from repro.rtl.coverage import ConditionCoverage


class Module:
    """Base class for design units.

    A module is constructed with its instance ``path`` (e.g.
    ``"rocket.dcache"``) and the shared :class:`ConditionCoverage` database.
    Subclasses declare conditions during ``__init__`` with :meth:`condition`,
    which prebinds each condition's ``(false_bit, true_bit)`` arm pair in
    :attr:`arms`.  At run time a module indexes a pair with the condition's
    value, ORs the bit into one local mask, and records the mask with a
    single ``self.cov.record_mask`` per cycle or call.
    """

    def __init__(self, path: str, cov: ConditionCoverage) -> None:
        self.path = path
        self.cov = cov
        #: condition name -> ``(false_bit, true_bit)``, indexed by its value.
        self.arms: dict[str, tuple[int, int]] = {}
        self._children: list[Module] = []

    # -- elaboration -----------------------------------------------------------

    def condition(self, name: str) -> None:
        """Declare a condition local to this module (``<path>.<name>``)."""
        handle = self.cov.declare(f"{self.path}.{name}")
        self.arms[name] = (self.cov.arm_bit(handle, False),
                           self.cov.arm_bit(handle, True))

    def conditions(self, *names: str) -> None:
        """Declare several conditions at once."""
        for name in names:
            self.condition(name)

    def child(self, module: "Module") -> "Module":
        """Register a sub-module so reset reaches it."""
        self._children.append(module)
        return module

    # -- runtime -----------------------------------------------------------------

    def arm_bit(self, name: str, value) -> int:
        """Bitmap contribution of observing ``name`` with ``value``.

        For building memoized group masks: OR the bits of a correlated
        condition group once, then retire the whole group per evaluation
        with ``self.cov.record_mask(mask)``.
        """
        return self.arms[name][1 if value else 0]

    def reset(self) -> None:
        """Reset every child; subclasses also clear their own state."""
        for module in self._children:
            module.reset()
