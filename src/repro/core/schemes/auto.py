"""The ``auto`` scheme: cost-driven delegation to the best hand-coded
scheme for the current layout and platform.

``auto`` is not a ninth transfer mechanism — it resolves, at setup
time, to whichever paper scheme the selector
(:func:`repro.core.advise.select_scheme`) prices cheapest for
``(layout, platform)``, then delegates every hook to that scheme.
Resolution is pure host-side arithmetic over the machine model: it
spends no virtual time, so an ``auto`` cell's virtual timeline is
bit-identical to the chosen scheme's own cell.

Sender and receiver resolve independently but deterministically (same
layout, same platform, same arithmetic), so both sides always agree on
the wire protocol.
"""

from __future__ import annotations

from ...mpi.comm import Comm
from .base import SchemeContext, SendScheme

__all__ = ["AutoScheme"]


class AutoScheme(SendScheme):
    """Pick the modeled-cheapest scheme for the layout, then delegate."""

    key = "auto"
    label = "auto"

    def __init__(self) -> None:
        super().__init__()
        self.chosen: str | None = None
        self._inner: SendScheme | None = None

    def _resolve(self, comm: Comm, ctx: SchemeContext) -> SendScheme:
        if self._inner is None:
            # Local: the registry imports us, and the selector imports
            # the registry.
            from ..advise import select_scheme
            from . import make_scheme

            self.chosen = select_scheme(ctx.layout, comm.world.platform)
            self._inner = make_scheme(self.chosen)
            self.label = f"auto({self._inner.label})"
        return self._inner

    @staticmethod
    def resolve_label(layout, platform) -> str:
        """The label an ``auto`` cell reports, without running it."""
        from ..advise import select_scheme
        from . import make_scheme

        return f"auto({make_scheme(select_scheme(layout, platform)).label})"

    def span_attrs(self) -> dict[str, str]:
        return {"chosen": self.chosen} if self.chosen else {}

    # ------------------------------------------------------------------
    # Hooks: resolve on setup, then delegate everything.
    # ------------------------------------------------------------------
    def setup_sender(self, comm: Comm, ctx: SchemeContext) -> None:
        self._resolve(comm, ctx).setup_sender(comm, ctx)

    def setup_receiver(self, comm: Comm, ctx: SchemeContext) -> None:
        self._resolve(comm, ctx).setup_receiver(comm, ctx)

    def iteration_sender(self, comm: Comm) -> None:
        assert self._inner is not None, "auto scheme used before setup"
        self._inner.iteration_sender(comm)

    def iteration_receiver(self, comm: Comm) -> None:
        assert self._inner is not None, "auto scheme used before setup"
        self._inner.iteration_receiver(comm)

    def teardown_sender(self, comm: Comm, ctx: SchemeContext) -> None:
        if self._inner is not None:
            self._inner.teardown_sender(comm, ctx)

    def teardown_receiver(self, comm: Comm, ctx: SchemeContext) -> None:
        if self._inner is not None:
            self._inner.teardown_receiver(comm, ctx)

    def verify_receiver(self, ctx: SchemeContext) -> bool:
        assert self._inner is not None, "auto scheme used before setup"
        return self._inner.verify_receiver(ctx)
