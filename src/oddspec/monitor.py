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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress

from .domain import UNKNOWN, Lod, Trace
from .errors import MonitorError
from .evaluator import _NO_HINT, _VERDICT, Diagnosis, Verdict, _check_arity, _lift, _retest
from .specdsl import Atom, WellFormedSpec, serialize_spec
from .taxonomy import _FLOAT_MAX, Taxonomy, _check_binding


class EventKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    UNKNOWN_START = "unknown_start"
    UNKNOWN_END = "unknown_end"


@dataclass(frozen=True, slots=True, init=False)
class MonitorEvent:
    """A transition of the verdict: its kind, the time and index of the
    sample that caused it, and that sample's diagnosis."""

    kind: EventKind
    t: float
    sample_index: int
    diagnosis: Diagnosis

    def __init__(self, kind: EventKind, t: float, sample_index: int, diagnosis: Diagnosis):
        # written through the slots, past the frozen __setattr__, as Lod's are
        _set_kind(self, kind)
        _set_t(self, t)
        _set_sample_index(self, sample_index)
        _set_diagnosis(self, diagnosis)


_set_kind = MonitorEvent.__dict__["kind"].__set__
_set_t = MonitorEvent.__dict__["t"].__set__
_set_sample_index = MonitorEvent.__dict__["sample_index"].__set__
_set_diagnosis = MonitorEvent.__dict__["diagnosis"].__set__


# Events per (previous verdict, new verdict); None means before any sample.
# Unknown counts as not-in-domain for event purposes, hence Exit on
# True -> Unknown and no Entry on Unknown -> False.
_TRANSITIONS: dict[tuple[Verdict | None, Verdict], tuple[EventKind, ...]] = {
    (None, Verdict.TRUE): (EventKind.ENTRY,),
    (None, Verdict.FALSE): (EventKind.EXIT,),
    (None, Verdict.UNKNOWN): (EventKind.UNKNOWN_START,),
    (Verdict.TRUE, Verdict.FALSE): (EventKind.EXIT,),
    (Verdict.TRUE, Verdict.UNKNOWN): (EventKind.EXIT, EventKind.UNKNOWN_START),
    (Verdict.FALSE, Verdict.TRUE): (EventKind.ENTRY,),
    (Verdict.FALSE, Verdict.UNKNOWN): (EventKind.UNKNOWN_START,),
    (Verdict.UNKNOWN, Verdict.TRUE): (EventKind.UNKNOWN_END, EventKind.ENTRY),
    (Verdict.UNKNOWN, Verdict.FALSE): (EventKind.UNKNOWN_END,),
}


class MonitorState:
    """Mutable fold state; owned by exactly one consumer at a time.

    A state is built only from its spec: ``MonitorState(spec)`` and
    ``monitor_init`` build the same fresh state. Every seed below is the
    all-Unknown row, on which every atom and every node has rank 1
    (``min(1, 1)`` and ``2 - 1``), every atom is unknown and none is
    falsified, so the first sample takes the same path as every later one.

    An atom's rank depends only on its attribute's value, so the fold keeps
    the last sample's values tuple (``last_values``) and re-tests only the
    atoms of the attributes whose value differs. ``hints`` holds, per
    taxonomy position, the open interval between two consecutive literals
    of the spec that held its last value, or the empty ``_NO_HINT`` when
    that value is Unknown or followed an Unknown one (``evaluator._retest``):
    a measured number that moves inside it moves no atom, so its atoms are
    not re-tested. ``node_ranks`` holds one rank per node of the spec's
    node table (``WellFormedSpec.parents``), atom ``i``'s at node ``i``;
    for each atom whose rank moved, the fold walks up from it, and the
    root's rank is the verdict.

    The diagnosis is kept per atom as well: ``falsified[i]`` says atom ``i``
    is blamed and has rank 0, ``unknown[i]`` that it has rank 1. The flags
    repeat what ``node_ranks`` says, and stay because an event's diagnosis
    is one ``compress`` over each of them, in about half the time of a pass
    over the row with the blame flags. A blamed atom's falsified
    samples are counted by runs: ``run_starts[i]`` is the sample index at
    which atom ``i``'s rank last became 0, and ``violations[i]`` adds up
    the runs that have ended. ``report_from_state`` adds the runs still
    open.
    """

    def __init__(self, spec: WellFormedSpec):
        self.spec = spec
        self.last_verdict: Verdict | None = None
        self.last_t: float | None = None
        self.counts = dict.fromkeys(Verdict, 0)
        self.dwell = dict.fromkeys(Verdict, 0.0)
        self.last_values = (UNKNOWN,) * len(spec.taxonomy)
        self.hints = [_NO_HINT] * len(spec.taxonomy)
        self.node_ranks = [1] * len(spec.parents)
        self.falsified = [False] * len(spec.atoms)
        self.unknown = [True] * len(spec.atoms)
        self.violations = [0] * len(spec.atoms)
        self.run_starts = [0] * len(spec.atoms)

    @property
    def samples_total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class MonitorReport:
    """Summary of a fold: samples and dwell time per verdict, every event in
    order, and for each blamed atom the number of samples that falsified it.
    ``samples_total`` is the sum of the three sample counts."""

    samples_in: int
    samples_out: int
    samples_unknown: int
    dwell_in_s: float
    dwell_out_s: float
    dwell_unknown_s: float
    events: tuple[MonitorEvent, ...]
    atom_violations: dict[Atom, int]

    @property
    def samples_total(self) -> int:
        return self.samples_in + self.samples_out + self.samples_unknown


def monitor_init(spec: WellFormedSpec, taxonomy: Taxonomy) -> MonitorState:
    """Fresh state with zeroed counters.

    Raises:
        MonitorError: the spec was checked against a taxonomy that is not
            equal to ``taxonomy`` (attributes, order, types and version).
    """
    _check_binding(spec.taxonomy, taxonomy, "spec was checked against", MonitorError)
    return MonitorState(spec)


def monitor_step(
    state: MonitorState, cod: Lod
) -> tuple[MonitorState, Verdict, list[MonitorEvent]]:
    """Consume one sample; return the verdict and any transition events.

    Dwell time attributes the interval from the previous sample to this
    one to the PREVIOUS verdict (sample-and-hold). Only the atoms of the
    attributes whose value is ``!=`` the previous sample's are tested
    again, those of a number only when it leaves the hint of its last
    value: for the values a taxonomy holds, equal values pass the same
    tests. The atoms whose rank moved, as the re-test lists them, are the
    only ones whose nodes, flags and runs are updated. A ``Diagnosis`` is
    built only for a sample that emits events, from the per-atom flags in
    atom order. A refused sample changes nothing in the state.

    Raises:
        MonitorError: the sample's timestamp does not increase.
        EvaluationError: the sample's arity does not match the taxonomy.
    """
    t, values = cod.t, cod.values
    last_t = state.last_t
    if last_t is not None and not t > last_t:
        raise MonitorError(f"timestamp {t} does not increase past {last_t}")
    spec = state.spec
    _check_arity(values, spec.taxonomy)
    moved = _retest(spec.groups, values, state.last_values, state.node_ranks, state.hints)
    # nothing below raises, so a refused sample commits nothing
    state.last_values = values
    if moved:
        index = state.samples_total
        row, blame, starts = state.node_ranks, spec.blame, state.run_starts
        falsified, unknown = state.falsified, state.unknown
        for atom, rank in moved:
            _lift(spec, row, atom, rank)
            unknown[atom] = rank == 1
            if blame[atom]:
                if rank == 0:
                    starts[atom] = index
                    falsified[atom] = True
                elif falsified[atom]:
                    state.violations[atom] += index - starts[atom]
                    falsified[atom] = False

    verdict = _VERDICT[state.node_ranks[-1]]
    last_verdict = state.last_verdict
    if last_t is not None:
        state.dwell[last_verdict] += t - last_t
    state.counts[verdict] += 1
    state.last_verdict = verdict
    state.last_t = t
    # a repeated verdict has no events, and no entry in _TRANSITIONS
    if verdict is last_verdict:
        return state, verdict, []
    if not moved:
        # a verdict moves only with an atom, so this is the first sample
        index = 0
    atoms = spec.atoms
    diagnosis = Diagnosis(
        verdict, tuple(compress(atoms, state.falsified)), tuple(compress(atoms, state.unknown))
    )
    kinds = _TRANSITIONS[(last_verdict, verdict)]
    return state, verdict, [MonitorEvent(kind, t, index, diagnosis) for kind in kinds]


def _fold(
    state: MonitorState, samples: Iterable[Lod]
) -> Iterator[tuple[Lod, Verdict, list[MonitorEvent]]]:
    """Step ``state`` through ``samples`` as they are read, yielding each
    sample with its verdict and events; raises as ``monitor_step`` does."""
    for sample in samples:
        _, verdict, events = monitor_step(state, sample)
        yield sample, verdict, events


def run_monitor(
    spec: WellFormedSpec, taxonomy: Taxonomy, trace: Trace | Iterable[Lod]
) -> MonitorReport:
    """Fold the monitor over a trace, or over any iterable of samples as it
    is read, without holding them, and assemble the report.

    Pure in its inputs: the same (spec, taxonomy, samples) always produces
    an identical report.

    Raises:
        MonitorError: a ``Trace`` recorded against a taxonomy that is not
            equal to ``taxonomy``, then a spec checked against one, then no
            samples; or a timestamp that does not increase.
    """
    if isinstance(trace, Trace):
        _check_binding(trace.taxonomy, taxonomy, "trace was recorded against", MonitorError)
        trace = trace.samples
    state = monitor_init(spec, taxonomy)
    events: list[MonitorEvent] = []
    for _, _, step_events in _fold(state, trace):
        events.extend(step_events)
    return report_from_state(state, events)


def report_from_state(
    state: MonitorState, events: list[MonitorEvent]
) -> MonitorReport:
    """Assemble the report of a fold driven by ``monitor_step``, as a
    closed loop in the vehicle drives it, from the events it returned.

    The fold may go on after it: the report counts every sample so far.

    Raises:
        MonitorError: the fold has consumed no sample.
    """
    total = state.samples_total
    if total == 0:
        raise MonitorError("trace has no samples")
    atom_violations = {}
    for atom, count, falsified, start in zip(
        state.spec.atoms, state.violations, state.falsified, state.run_starts
    ):
        if falsified:
            count += total - start
        if count:
            atom_violations[atom] = count
    # a dwell is at most the last t less the first, and so a float, but a
    # sum of the intervals may round past the largest float to infinity
    return MonitorReport(
        samples_in=state.counts[Verdict.TRUE],
        samples_out=state.counts[Verdict.FALSE],
        samples_unknown=state.counts[Verdict.UNKNOWN],
        dwell_in_s=min(state.dwell[Verdict.TRUE], _FLOAT_MAX),
        dwell_out_s=min(state.dwell[Verdict.FALSE], _FLOAT_MAX),
        dwell_unknown_s=min(state.dwell[Verdict.UNKNOWN], _FLOAT_MAX),
        events=tuple(events),
        atom_violations=atom_violations,
    )


def render_report(report: MonitorReport) -> dict:
    """JSON-ready dict in the documented report shape; atoms are rendered
    as their canonical specification text, each atom once per call."""
    # Keyed by id: equal atoms can write different text (a literal 45 and
    # 45.0), and the report keeps every atom alive, so no id is reused.
    texts: dict[int, str] = {}

    def render(atoms) -> list[str]:
        rendered = []
        for atom in atoms:
            text = texts.get(id(atom))
            if text is None:
                text = texts[id(atom)] = serialize_spec(atom)
            rendered.append(text)
        return rendered

    violations = report.atom_violations
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
                "falsified": render(event.diagnosis.falsified_atoms),
                "unknown": render(event.diagnosis.unknown_atoms),
            }
            for event in report.events
        ],
        "atom_violations": dict(zip(render(violations), violations.values())),
    }


def report_json(report: MonitorReport) -> str:
    return json.dumps(render_report(report), indent=2) + "\n"
