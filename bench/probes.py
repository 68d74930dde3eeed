"""Where the benchmark instruments axsim, and the per-layer metrics it derives.

Every run wraps the three phase boundaries: ``runner.run`` (the whole
operation), ``RunContext.__init__`` (set-up: topology, loss matrix,
engines) and ``RunContext.run`` (the event loop).  It also splits the event
loop's ``Simulator.run_until`` into ``SLICES`` calls over equal slices of
simulated time, each one span, and runs one calibration burst, its own
span, after each; ``SETUP_BURSTS`` more run on each side of the set-up.
Events run in the same order either way: ``run_until`` processes every
event up to its bound, and the burst touches no simulator state.
The traced run adds one span or counter per layer boundary below.  All of
them are public calls of the package, replaced from outside and put back by
``Tracer.restore``.
"""

from __future__ import annotations

from axsim import core, engine, frames, medium, mu, phy, runner, spatial, topo

from tracing import Tracer

OP, SETUP, RUN = "runner.run", "setup", "run"
SLICE, CAL, SETUP_CAL = "run.slice", "run.calibrate", "setup.calibrate"
SLICES = 100
SETUP_BURSTS = 25
# Seconds SLICES calibration bursts take together on the host the benchmark
# was tuned on (2 vCPUs, CPython 3.11) when nothing else slows it.  Host
# times are scaled to this speed.
CAL_REF_S = 0.16

TOPOLOGY_GENERATORS = ("gen_indoor_single", "gen_outdoor_single",
                       "gen_indoor_multi", "gen_outdoor_multi")


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibration_burst(n: int = 4000) -> float:
    """Fixed interpreted work of the kind the event loop is made of: object
    allocation, attribute reads, dict stores and list appends.  A slow phase
    of the host slows it as much as the simulator, which a tight arithmetic
    loop does not."""
    table = {}
    out = []
    for i in range(n):
        item = _Item(i, i * 0.5)
        table[i % 97] = item
        out.append(item.value + table[i % 97].key)
    return sum(out)


def install_phases(tracer: Tracer) -> None:
    def record_events(_token, args, _result):
        tracer.count("core.events", args[0].sim.processed)

    setup = tracer.wrap(engine.RunContext.__init__, SETUP)
    calibrate_setup = tracer.wrap(calibration_burst, SETUP_CAL)
    run_slice = tracer.wrap(core.Simulator.run_until, SLICE)
    calibrate = tracer.wrap(calibration_burst, CAL)

    def init(ctx, *args, **kwargs):
        for _ in range(SETUP_BURSTS):
            calibrate_setup()
        setup(ctx, *args, **kwargs)
        for _ in range(SETUP_BURSTS):
            calibrate_setup()

    def run_until(sim, t_end):
        start = sim.now
        processed = 0
        for k in range(1, SLICES + 1):
            processed += run_slice(sim, start + (t_end - start) * k // SLICES)
            calibrate()
        return processed

    tracer.span(runner, "run", OP)
    tracer.patch(engine.RunContext, "__init__", init)
    tracer.span(engine.RunContext, "run", RUN, after=record_events)
    tracer.patch(core.Simulator, "run_until", run_until)


def install_layers(tracer: Tracer) -> None:
    count = tracer.count

    def frames_scanned(_token, args, _result):
        count("medium.sensed.frames_scanned", len(args[0].active))

    def gen_before(args):
        return args[0].gen

    def gen_flipped(gen, args, _result):
        if args[0].gen != gen:
            count("engine.on_medium_change.flips")

    def sr_capped(_token, _args, result):
        if result[1] is not None:
            count("engine.cs_state.sr_caps")

    tracer.span(medium.Medium, "sensed", "medium.sensed", after=frames_scanned)
    tracer.counter(medium.Medium, "transmit", "medium.transmit")
    for name in ("sinr_db", "nav_sinr_vector", "interference_dbm"):
        tracer.span(medium.Medium, name, f"medium.{name}")

    tracer.span(engine.BssEngine, "on_air", "engine.on_air")
    tracer.span(engine.Contender, "on_medium_change", "engine.on_medium_change",
                before=gen_before, after=gen_flipped)
    tracer.span(engine.BssEngine, "cs_state", "engine.cs_state", after=sr_capped)
    for cls in (engine.AcBssEngine, engine.AxBssEngine):
        tracer.counter(cls, "on_backoff_complete", "engine.on_backoff_complete")

    tracer.counter(frames.Mpdu, "__eq__", "frames.mpdu_compares")

    tracer.span(phy.PerModel, "select_mcs", "phy.select_mcs")
    tracer.span(phy.PerModel, "per", "phy.per")
    tracer.span(phy.PathLossModel, "loss_db", "phy.loss_db")

    tracer.span(mu, "build_schedule", "mu.build_schedule")
    tracer.counter(spatial, "classify_frame", "spatial.classify_frame")
    tracer.counter(spatial, "max_sr_tx_power", "spatial.max_sr_tx_power")

    for name in TOPOLOGY_GENERATORS:
        tracer.span(topo, name, "topo.generate")


def layer_metrics(summary: dict, counts: dict, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``untraced_run_s`` is the scaled run phase of an untraced operation on
    the same inputs; events per second come from it, not from the slowed
    traced run.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    events = counts["core.events"]
    out = {
        "core.events": events,
        "core.events_per_s": events / untraced_run_s,
        "core.unspanned_s": self_s(RUN) + self_s(SLICE),
        "medium.sensed.frames_scanned": counts.get("medium.sensed.frames_scanned", 0),
        "medium.transmit.calls": counts["medium.transmit"],
        "engine.on_medium_change.flip_ratio": ratio(
            counts.get("engine.on_medium_change.flips", 0),
            calls("engine.on_medium_change")),
        "engine.cs_state.sr_cap_ratio": ratio(
            counts.get("engine.cs_state.sr_caps", 0), calls("engine.cs_state")),
        "engine.on_backoff_complete.calls": counts["engine.on_backoff_complete"],
        "frames.mpdu_compares": counts["frames.mpdu_compares"],
        "spatial.classify_frame.calls": counts["spatial.classify_frame"],
        "spatial.max_sr_tx_power.calls": counts["spatial.max_sr_tx_power"],
        "topo.generate.self_s": self_s("topo.generate"),
        "setup.unspanned_s": self_s(SETUP),
        "runner.report_s": self_s(OP),
    }
    for name in ("medium.sensed", "medium.sinr_db", "medium.nav_sinr_vector",
                 "medium.interference_dbm", "engine.on_air",
                 "engine.on_medium_change", "engine.cs_state", "phy.select_mcs",
                 "phy.per", "phy.loss_db", "mu.build_schedule"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    return out
