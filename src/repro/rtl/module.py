"""Hierarchical design modules with scoped condition coverage."""

from __future__ import annotations

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.signal import Reg


class Module:
    """Base class for design units.

    A module is constructed with its instance ``path`` (e.g.
    ``"rocket.dcache"``) and the shared :class:`ConditionCoverage` database.
    Subclasses declare conditions during ``__init__`` with :meth:`condition`
    and record observations with :meth:`cond`; registers created with
    :meth:`reg` are committed automatically by the clock domain.
    """

    def __init__(self, path: str, cov: ConditionCoverage) -> None:
        self.path = path
        self.cov = cov
        self._handles: dict[str, int] = {}
        self._regs: list[Reg] = []
        self._children: list[Module] = []

    # -- elaboration -----------------------------------------------------------

    def condition(self, name: str) -> None:
        """Declare a condition local to this module (``<path>.<name>``)."""
        self._handles[name] = self.cov.declare(f"{self.path}.{name}")

    def conditions(self, *names: str) -> None:
        """Declare several conditions at once."""
        for name in names:
            self.condition(name)

    def reg(self, reset_value=0) -> Reg:
        """Create a clocked register owned by this module."""
        register = Reg(reset_value)
        self._regs.append(register)
        return register

    def child(self, module: "Module") -> "Module":
        """Register a sub-module so clocking and reset reach it."""
        self._children.append(module)
        return module

    # -- runtime -----------------------------------------------------------------

    def cond(self, name: str, value) -> bool:
        """Record one observation of a declared condition; returns bool(value).

        Two calls and a name lookup per observation: fine off the hot path.
        Per-cycle paths instead fold prebound ``(false_bit, true_bit)``
        pairs (see :meth:`arm_bit`) into one local mask and record it with
        a single ``self.cov.record_mask`` per cycle.
        """
        return self.cov.record(self._handles[name], bool(value))

    def arm_bit(self, name: str, value) -> int:
        """Bitmap contribution of observing ``name`` with ``value``.

        For building memoized group masks: OR the bits of a correlated
        condition group once, then retire the whole group per evaluation
        with ``self.cov.record_mask(mask)``.
        """
        return self.cov.arm_bit(self._handles[name], value)

    def record_keyed_group(self, cache: dict, key, builder, arg,
                           cap: int = 65536) -> None:
        """Record a condition group whose outcome is a pure function of
        ``key``, memoizing its packed mask in ``cache``.

        On a miss, ``builder(arg)`` computes the group's arm mask (via
        :meth:`arm_bit`); on a hit the whole group costs one dict probe and
        one bitmap OR.  ``cache`` is bounded: at ``cap`` entries it is
        cleared and rebuilt from the (small) hot working set, matching the
        decoder's bounded-LRU policy rather than growing for the lifetime
        of a campaign.
        """
        mask = cache.get(key)
        if mask is None:
            if len(cache) >= cap:
                cache.clear()
            mask = builder(arg)
            cache[key] = mask
        self.cov.record_mask(mask)

    def commit(self) -> None:
        """Clock edge: latch every register in this module and its children."""
        for register in self._regs:
            register.commit()
        for module in self._children:
            module.commit()

    def reset(self) -> None:
        """Reset every register in this module and its children."""
        for register in self._regs:
            register.reset()
        for module in self._children:
            module.reset()

    def iter_modules(self):
        """Yield this module and all descendants depth-first."""
        yield self
        for module in self._children:
            yield from module.iter_modules()
