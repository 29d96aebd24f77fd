"""Streaming monitor: is the currently measured domain inside the design domain?

The monitor folds samples in timestamp order, evaluates the specification
on each one, and emits events on verdict transitions. Exiting the design
domain is the hook for triggering a fallback manoeuvre, so the monitor is
conservative: an Unknown verdict while inside emits an Exit — absence of
evidence never counts as assurance. Unknown samples are still counted
separately so reports distinguish "out" from "unmeasured".

There is no debouncing: every transition emits immediately. Hysteresis
policies belong on top of the event stream, not inside it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .domain import UNKNOWN, Lod, Trace
from .errors import MonitorError
from .evaluator import Diagnosis, Verdict, _check_arity, _diagnosis, _retest
from .specdsl import Atom, WellFormedSpec, serialize_spec
from .taxonomy import Taxonomy, _check_binding


class EventKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    UNKNOWN_START = "unknown_start"
    UNKNOWN_END = "unknown_end"


@dataclass(frozen=True)
class MonitorEvent:
    kind: EventKind
    t: float
    sample_index: int
    diagnosis: Diagnosis


# Events per (previous verdict, new verdict); None means before any sample.
# Unknown counts as not-in-domain for event purposes, hence Exit on
# True -> Unknown and no Entry on Unknown -> False.
_TRANSITIONS: dict[tuple[Verdict | None, Verdict], tuple[EventKind, ...]] = {
    (None, Verdict.TRUE): (EventKind.ENTRY,),
    (None, Verdict.FALSE): (EventKind.EXIT,),
    (None, Verdict.UNKNOWN): (EventKind.UNKNOWN_START,),
    (Verdict.TRUE, Verdict.TRUE): (),
    (Verdict.TRUE, Verdict.FALSE): (EventKind.EXIT,),
    (Verdict.TRUE, Verdict.UNKNOWN): (EventKind.EXIT, EventKind.UNKNOWN_START),
    (Verdict.FALSE, Verdict.TRUE): (EventKind.ENTRY,),
    (Verdict.FALSE, Verdict.FALSE): (),
    (Verdict.FALSE, Verdict.UNKNOWN): (EventKind.UNKNOWN_START,),
    (Verdict.UNKNOWN, Verdict.TRUE): (EventKind.UNKNOWN_END, EventKind.ENTRY),
    (Verdict.UNKNOWN, Verdict.FALSE): (EventKind.UNKNOWN_END,),
    (Verdict.UNKNOWN, Verdict.UNKNOWN): (),
}


@dataclass
class MonitorState:
    """Mutable fold state, built by ``monitor_init``; owned by exactly one
    consumer at a time.

    A sample's diagnosis depends only on its atom ranks, so the fold keeps
    the last sample's ranks (``last_ranks``) and ``Diagnosis``
    (``last_diagnosis``), and reuses them while the ranks repeat. An atom's
    rank depends only on its attribute's value, so the fold also keeps the
    last sample's values tuple (``last_values``) and re-tests only the
    atoms of the attributes whose value differs from it. ``monitor_init``
    seeds both with the all-Unknown row (every atom rank 1), so the first
    sample takes the same path as every later one.
    ``pending`` counts the samples of that run not yet added to
    ``atom_violations``, which therefore lags by the pending run until
    ``report_from_state`` adds it: read violations from the report.
    """

    spec: WellFormedSpec
    last_verdict: Verdict | None = None
    last_t: float | None = None
    counts: dict[Verdict, int] = field(default_factory=lambda: dict.fromkeys(Verdict, 0))
    dwell: dict[Verdict, float] = field(default_factory=lambda: dict.fromkeys(Verdict, 0.0))
    atom_violations: dict[Atom, int] = field(default_factory=dict)
    last_ranks: list[int] | None = None
    last_values: tuple | None = None
    last_diagnosis: Diagnosis | None = None
    pending: int = 0

    @property
    def samples_total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class MonitorReport:
    samples_total: int
    samples_in: int
    samples_out: int
    samples_unknown: int
    dwell_in_s: float
    dwell_out_s: float
    dwell_unknown_s: float
    events: tuple[MonitorEvent, ...]
    atom_violations: dict[Atom, int]


def monitor_init(spec: WellFormedSpec, taxonomy: Taxonomy) -> MonitorState:
    """Fresh state with zeroed counters.

    Raises:
        MonitorError: the spec was checked against a taxonomy that is not
            equal to ``taxonomy`` (attributes, order, types and version).
    """
    _check_binding(spec.taxonomy, taxonomy, "spec was checked against", MonitorError)
    return MonitorState(
        spec, atom_violations=dict.fromkeys(spec.atoms, 0),
        last_ranks=[1] * len(spec.atoms), last_values=(UNKNOWN,) * len(taxonomy),
    )


def monitor_step(
    state: MonitorState, cod: Lod
) -> tuple[MonitorState, Verdict, list[MonitorEvent]]:
    """Consume one sample; return the verdict and any transition events.

    Dwell time attributes the interval from the previous sample to this
    one to the PREVIOUS verdict (sample-and-hold). Only the atoms of the
    attributes whose value is ``!=`` the previous sample's are tested
    again: for the values a taxonomy holds, equal values pass the same
    tests. A sample whose atom ranks equal the previous sample's has the
    same diagnosis and verdict, hence no events: it only extends the
    pending run. A refused sample leaves the state as it was.

    Raises:
        MonitorError: the sample's timestamp does not increase.
        EvaluationError: the sample's arity does not match the taxonomy.
    """
    if state.last_t is not None and not cod.t > state.last_t:
        raise MonitorError(
            f"timestamp {cod.t} does not increase past {state.last_t}"
        )
    spec = state.spec
    _check_arity(cod, spec.taxonomy)
    ranks = _retest(spec.groups, cod.values, state.last_values, state.last_ranks)
    state.last_values = cod.values
    if ranks == state.last_ranks and state.last_verdict is not None:
        verdict = state.last_verdict
        state.pending += 1
        state.counts[verdict] += 1
        state.dwell[verdict] += cod.t - state.last_t
        state.last_t = cod.t
        return state, verdict, []

    _flush(state)
    report = _diagnosis(spec, ranks)
    verdict = report.verdict

    if state.last_t is not None:
        state.dwell[state.last_verdict] += cod.t - state.last_t

    sample_index = state.samples_total
    state.counts[verdict] += 1

    events = [
        MonitorEvent(kind=kind, t=cod.t, sample_index=sample_index, diagnosis=report)
        for kind in _TRANSITIONS[(state.last_verdict, verdict)]
    ]
    state.last_verdict = verdict
    state.last_t = cod.t
    state.last_ranks = ranks
    state.last_diagnosis = report
    state.pending = 1
    return state, verdict, events


def _flush(state: MonitorState) -> None:
    """Add the pending run to ``atom_violations``; a second call adds nothing."""
    if state.pending:
        for atom in state.last_diagnosis.falsified_atoms:
            state.atom_violations[atom] += state.pending
        state.pending = 0


def run_monitor(
    spec: WellFormedSpec, taxonomy: Taxonomy, trace: Trace
) -> MonitorReport:
    """Fold the monitor over a whole trace and assemble the report.

    Pure in its inputs: the same (spec, taxonomy, trace) always produces
    an identical report.

    Raises:
        MonitorError: empty trace, or a spec or trace bound to a taxonomy
            that is not equal to ``taxonomy``.
    """
    _check_binding(trace.taxonomy, taxonomy, "trace was recorded against", MonitorError)
    state = monitor_init(spec, taxonomy)
    events: list[MonitorEvent] = []
    for sample in trace.samples:
        _, _, step_events = monitor_step(state, sample)
        events.extend(step_events)
    return report_from_state(state, events)


def report_from_state(
    state: MonitorState, events: list[MonitorEvent]
) -> MonitorReport:
    """Assemble the report for a manually driven fold.

    The fold may go on after it: the report counts every sample so far.

    Raises:
        MonitorError: the fold has consumed no sample.
    """
    total = state.samples_total
    if total == 0:
        raise MonitorError("trace has no samples")
    _flush(state)
    return MonitorReport(
        samples_total=total,
        samples_in=state.counts[Verdict.TRUE],
        samples_out=state.counts[Verdict.FALSE],
        samples_unknown=state.counts[Verdict.UNKNOWN],
        dwell_in_s=state.dwell[Verdict.TRUE],
        dwell_out_s=state.dwell[Verdict.FALSE],
        dwell_unknown_s=state.dwell[Verdict.UNKNOWN],
        events=tuple(events),
        atom_violations={
            atom: count for atom, count in state.atom_violations.items() if count > 0
        },
    )


def render_report(report: MonitorReport) -> dict:
    """JSON-ready dict in the documented report shape; atoms are rendered
    as their canonical specification text."""
    return {
        "samples": {
            "total": report.samples_total,
            "in": report.samples_in,
            "out": report.samples_out,
            "unknown": report.samples_unknown,
        },
        "dwell_s": {
            "in": report.dwell_in_s,
            "out": report.dwell_out_s,
            "unknown": report.dwell_unknown_s,
        },
        "events": [
            {
                "kind": event.kind.value,
                "t": event.t,
                "index": event.sample_index,
                "falsified": [serialize_spec(a) for a in event.diagnosis.falsified_atoms],
                "unknown": [serialize_spec(a) for a in event.diagnosis.unknown_atoms],
            }
            for event in report.events
        ],
        "atom_violations": {
            serialize_spec(atom): count
            for atom, count in report.atom_violations.items()
        },
    }


def report_json(report: MonitorReport) -> str:
    return json.dumps(render_report(report), indent=2) + "\n"
