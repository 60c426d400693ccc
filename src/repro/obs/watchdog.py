"""Liveness watchdog: which messages are stuck, where, and why.

The paper's liveness obligation is that every invoked message is
eventually delivered.  When a run drains with undelivered messages, the
watchdog names the blocking layer from the message's lifecycle state:

- invoked but never released  -> send inhibited at the sender;
- released but never received -> in flight: lost to a network fault
  (when a ``fault.drop``/``fault.partition`` probe or a
  :meth:`Watchdog.note_drop` call said so) or genuinely still travelling;
- received but never delivered -> buffered at the receiver.

Under fault injection (:mod:`repro.faults`) the in-flight diagnosis
distinguishes *network loss* from *protocol blocking*: a dropped packet
with retransmissions under way reads "lost in network (awaiting
retransmit)", a dropped packet nobody retransmits is flagged as such,
and only an undropped message falls through to the protocol's own
account.  When the run's protocol instances are available their
:meth:`~repro.protocols.base.Protocol.blocking_reason` hook refines the
generic reason with protocol state ("waiting for seq 3 from P0", ...).
The watchdog can follow a live bus or replay a finished
:class:`~repro.simulation.trace.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.events import DELIVER, INVOKE, RECEIVE, SEND
from repro.obs.bus import Bus, ProbeEvent
from repro.simulation.trace import Trace


#: The reason given for a held message when the protocol gives none.
DEFAULT_REASONS = {
    "inhibited": "protocol never released the send",
    "buffered": "protocol never delivered after receive",
}


@dataclass(frozen=True)
class StuckMessage:
    """One undelivered message and the diagnosis of what blocks it."""

    message_id: str
    phase: str  # "inhibited" | "in-flight" | "buffered"
    process: int  # the process holding the message
    since: float  # virtual time the message entered the blocking phase
    reason: str

    def describe(self) -> str:
        """A one-line human-readable diagnosis."""
        return "%s %s at P%d since t=%.3f: %s" % (
            self.message_id,
            self.phase,
            self.process,
            self.since,
            self.reason,
        )


class Watchdog:
    """Tracks per-message lifecycle state and reports stuck messages."""

    def __init__(self, bus: Optional[Bus] = None):
        self._invoked: Dict[str, float] = {}
        self._sender: Dict[str, int] = {}
        self._receiver: Dict[str, int] = {}
        self._released: Dict[str, float] = {}
        self._received: Dict[str, float] = {}
        self._delivered: Dict[str, float] = {}
        self._dropped: Dict[str, float] = {}
        self._retransmits: Dict[str, int] = {}
        self._unsubscribers = []
        if bus is not None:
            self._unsubscribers = [
                bus.subscribe("host.invoke", self._on_invoke),
                bus.subscribe("host.release", self._on_release),
                bus.subscribe("host.receive", self._on_receive),
                bus.subscribe("host.deliver", self._on_deliver),
                bus.subscribe("fault.drop", self._on_drop),
                bus.subscribe("fault.partition", self._on_drop),
                bus.subscribe("retx.send", self._on_retransmit),
            ]

    @classmethod
    def from_trace(cls, trace: Trace) -> "Watchdog":
        """Replay a finished trace into a watchdog (no bus required)."""
        watchdog = cls()
        messages = {message.id: message for message in trace.messages()}
        for record in trace.records():
            message = messages[record.event.message_id]
            kind = record.event.kind
            if kind is INVOKE:
                watchdog._note_invoke(
                    record.time, message.id, message.sender, message.receiver
                )
            elif kind is SEND:
                watchdog._released[message.id] = record.time
            elif kind is RECEIVE:
                watchdog._received[message.id] = record.time
            elif kind is DELIVER:
                watchdog._delivered[message.id] = record.time
        return watchdog

    # State transitions ----------------------------------------------------

    def _note_invoke(
        self, time: float, message_id: str, sender: int, receiver: int
    ) -> None:
        self._invoked[message_id] = time
        self._sender[message_id] = sender
        self._receiver[message_id] = receiver

    def _on_invoke(self, event: ProbeEvent) -> None:
        self._note_invoke(
            event.time,
            event.data["message_id"],
            event.data["process"],
            event.data["receiver"],
        )

    def _on_release(self, event: ProbeEvent) -> None:
        self._released[event.data["message_id"]] = event.time

    def _on_receive(self, event: ProbeEvent) -> None:
        self._received[event.data["message_id"]] = event.time

    def _on_deliver(self, event: ProbeEvent) -> None:
        self._delivered[event.data["message_id"]] = event.time

    def _on_drop(self, event: ProbeEvent) -> None:
        message_id = event.data.get("message_id")
        if message_id is not None:
            self.note_drop(message_id, time=event.time)

    def _on_retransmit(self, event: ProbeEvent) -> None:
        message_id = event.data.get("message_id")
        if message_id is not None:
            self.note_retransmit(message_id)

    # Fault attribution (probe-fed, or fed directly from a
    # FaultyTransport's ``dropped_user`` list when no bus was attached).

    def note_drop(self, message_id: str, time: float = 0.0) -> None:
        """Record that a copy of ``message_id`` was lost in the network."""
        self._dropped[message_id] = time

    def note_retransmit(self, message_id: str) -> None:
        """Record one retransmission attempt for ``message_id``."""
        self._retransmits[message_id] = self._retransmits.get(message_id, 0) + 1

    def close(self) -> None:
        """Detach from the bus (accumulated state remains queryable)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers = []

    # Reporting ------------------------------------------------------------

    def stuck(
        self, protocols: Optional[Sequence[object]] = None
    ) -> List[StuckMessage]:
        """Every invoked-but-undelivered message with its diagnosis.

        ``protocols`` is the per-process protocol list of the run, used to
        refine reasons via :meth:`Protocol.blocking_reason`.
        """
        reports = []
        for message_id in sorted(self._invoked):
            if message_id in self._delivered:
                continue
            sender = self._sender[message_id]
            receiver = self._receiver[message_id]
            if message_id not in self._released:
                phase, process = "inhibited", sender
                since = self._invoked[message_id]
                reason = DEFAULT_REASONS[phase]
            elif message_id not in self._received:
                phase, process = "in-flight", sender
                since = self._released[message_id]
                lost = message_id in self._dropped
                attempts = self._retransmits.get(message_id, 0)
                if lost and attempts:
                    reason = (
                        "lost in network (awaiting retransmit, "
                        "%d attempt(s) so far)" % attempts
                    )
                elif lost:
                    reason = (
                        "lost in network at t=%.3f, never retransmitted"
                        % self._dropped[message_id]
                    )
                else:
                    reason = "released but never arrived at P%d" % receiver
            else:
                phase, process = "buffered", receiver
                since = self._received[message_id]
                reason = DEFAULT_REASONS[phase]
            detail = self._protocol_reason(protocols, process, message_id)
            if detail:
                # Network loss outranks the protocol's own account -- the
                # sender's ARQ state is appended, not substituted, so the
                # report still separates "the network ate it" from "the
                # protocol is blocking".
                if phase == "in-flight" and message_id in self._dropped:
                    reason = "%s -- sender: %s" % (reason, detail)
                else:
                    reason = detail
            reports.append(
                StuckMessage(
                    message_id=message_id,
                    phase=phase,
                    process=process,
                    since=since,
                    reason=reason,
                )
            )
        return reports

    @staticmethod
    def _protocol_reason(
        protocols: Optional[Sequence[object]], process: int, message_id: str
    ) -> Optional[str]:
        if protocols is None or not 0 <= process < len(protocols):
            return None
        hook = getattr(protocols[process], "blocking_reason", None)
        if hook is None:
            return None
        return hook(message_id)

    def render(self, protocols: Optional[Sequence[object]] = None) -> str:
        """A human-readable stuck-message report (empty string when live)."""
        reports = self.stuck(protocols=protocols)
        if not reports:
            return ""
        lines = ["%d message(s) stuck:" % len(reports)]
        lines.extend("  " + report.describe() for report in reports)
        return "\n".join(lines)
