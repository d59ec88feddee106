"""The benchmark's workloads: each drives ``repro-ft`` the way a user does.

CLI workloads run ``repro-ft run/lifetime`` as child processes, back to
back until the run's time is up, each after a host-speed reference run
and every third one after a fresh set-up probe; ``serve_mixed`` starts ``repro-ft serve`` sessions
and drives each over TCP from this process with two closed-loop
clients.  Every command's output is checked (see ``check_*``); a failed
check is counted and reported, never skipped.

With tracing on, the same commands alternate untraced and traced (see
``tracing.py``), and the per-layer metrics come from the traced child's
spans.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from proc import CHILD_TIMEOUT_S, BenchError, Child, ChildResult, cli_argv, repo_env, run_child

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
CATALOGUE = json.loads((PERF / "metrics.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}
#: sha256 of each CLI workload's --out JSON at DEFAULT_SEED, one per input set.
DIGESTS = json.loads((PERF / "digests.json").read_text())

DEFAULT_SEED = 0
#: Benchmark seed n starts its trials at n * SEED_STRIDE, so seeds never share trials.
SEED_STRIDE = 1_000_000
#: A run rotates its commands (sessions) over this many input sets of its
#: seed, the i-th starting at i * SUBSEED_STRIDE past the seed's trials.
#: How long a command takes depends on its inputs (a tenth, on lifetime),
#: and the run's medians then average over three sets instead of one.
SUBSEEDS = 3
SUBSEED_STRIDE = 100_000
#: Commands (sessions) per run at least, whatever --seconds says, so
#: medians and quartiles have samples.
MIN_REPS = 3
#: A set-up probe runs before every PROBE_EVERY-th command.
PROBE_EVERY = 3
#: Seconds ``reference.py`` takes on the host every time metric is scaled to.
REFERENCE_S = 0.4
#: The traced run fails when layer self times miss the traced wall by more.
MAX_UNATTRIBUTED = 0.05
B = 4
#: Theorem 2's fault rate b^-3d for d=2, b=4 (exact in binary).
P_UNIT = float(B) ** -6
BN = ("--construction", "bn", "--d", "2", "--b", str(B))
HOST = "127.0.0.1"


@dataclass(frozen=True)
class CliWorkload:
    """One ``repro-ft`` command line, sized by ``trials`` per grid point."""

    name: str
    command: tuple
    trials: int
    grid: int
    #: Survival points as multiples of b^-3d (empty for other commands).
    points: tuple = ()
    #: Trials per point of the traced run's scalar-vs-auto comparison.
    dispatch_trials: int = 0
    params: tuple = (("d", 2), ("b", B))

    @property
    def trials_per_command(self) -> int:
        return self.trials * self.grid

    def argv(self, seed: int, out: Path, *, sub: int = 0, trials: int | None = None,
             points: tuple | None = None, backend: str = "auto") -> list:
        args = list(self.command)
        points = self.points if points is None else points
        if points:
            args += ["--p", ",".join(repr(x * P_UNIT) for x in points)]
        return args + [
            "--trials", str(trials or self.trials), "--workers", "1",
            "--backend", backend, "--seed", str(seed * SEED_STRIDE + sub * SUBSEED_STRIDE),
            "--out", str(out),
        ]


@dataclass(frozen=True)
class ServeWorkload:
    """Sessions of ``requests`` closed-loop requests from ``clients`` clients."""

    name: str
    params: tuple
    requests: int
    clients: int
    messages: int
    machine: str = "bench"


WORKLOADS = {
    wl.name: wl
    for wl in (
        CliWorkload("survival_knee", ("run", *BN), trials=512, grid=2,
                    points=(4, 8), dispatch_trials=128),
        CliWorkload("lifetime_uniform", ("lifetime", *BN, "--timeline", "uniform"),
                    trials=512, grid=1),
        ServeWorkload("serve_mixed", params=(("d", 2), ("b", 3)), requests=500,
                      clients=2, messages=32),
    )
}


@dataclass
class Outcome:
    """What one benchmark run found: checks, counts, metrics, raw samples."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    host: dict | None = None
    raw: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, problems: list) -> None:
        """Count one operation, failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class HostSpeed:
    """How fast the host runs right now, from ``reference.py`` run just
    before each command (session).

    A shared host speeds up and slows down by a fifth and more, within
    seconds and over minutes, and every process on it with it.  Each
    command's times are scaled by the factor its own reference run gives,
    to a host on which the reference takes :data:`REFERENCE_S`, so samples
    taken at different moments compare.  The reference shares no code with
    the program, so a change to the program moves the scaled metrics as
    much as the raw ones.  Raw samples stay in the run record.
    """

    def __init__(self, rundir: Path) -> None:
        self.rundir = rundir
        self.samples: list[float] = []
        self.cpu: list[float] = []
        self.output: str | None = None

    def sample(self) -> float:
        """Run the reference once; the factor that scales what follows it."""
        tag = f"reference{len(self.samples)}"
        res = run_child([sys.executable, str(PERF / "reference.py")], root=ROOT,
                        logdir=self.rundir, tag=tag)
        out = (self.rundir / f"{tag}.stdout").read_text()
        if res.returncode != 0 or out != (self.output or out):
            raise BenchError(f"reference.py failed (exit {res.returncode}, "
                             f"output {out!r}): {res.stderr.strip()[-300:]}")
        self.output = out
        self.samples.append(res.wall_s)
        self.cpu.append(res.cpu_s)
        return REFERENCE_S / res.wall_s


class Pacer:
    """Fits whole commands (sessions) into the run's ``seconds``.

    The next one starts only if, at the median length of those before it,
    it ends within the run; so a run ends close to ``seconds`` instead of
    up to one command past it.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = self._last = time.perf_counter()
        self.laps: list[float] = []

    def lap(self) -> None:
        now = time.perf_counter()
        self.laps.append(now - self._last)
        self._last = now

    def more(self, done: int, minimum: int = MIN_REPS) -> bool:
        if done < minimum:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + statistics.median(self.laps) <= self.seconds


def quantile(values: list, q: float) -> float:
    """Inclusive quantile ``q`` in (0, 1) at percent resolution."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- set-up probe -------------------------------------------------------------


def probe_setup(params: dict, logdir: Path, tag: str) -> tuple[float, dict]:
    """Spawn -> ``import repro.cli`` + registry build done, in a fresh process."""
    argv = [sys.executable, str(PERF / "probe.py"), "bn", json.dumps(params)]
    with open(logdir / f"{tag}.stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=repo_env(ROOT), text=True)
        first = proc.stdout.readline()
        ready = time.perf_counter()
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out") from None
    if first.strip() != "ready" or proc.returncode != 0:
        detail = (logdir / f"{tag}.stderr").read_text(errors="replace").strip()
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {detail[-500:]}")
    return ready - started, json.loads(rest.strip().splitlines()[-1])


# -- CLI workloads --------------------------------------------------------------


def check_result_json(wl: CliWorkload, doc: dict) -> list:
    """Structure and invariants of one ``repro-experiment-v1`` result."""
    problems = []
    if doc.get("format") != "repro-experiment-v1":
        return [f"{wl.name}: unexpected result format {doc.get('format')!r}"]
    points = doc.get("points", [])
    if len(points) != len(doc["spec"]["grid"]):
        problems.append(f"{wl.name}: {len(points)} result points for "
                        f"{len(doc['spec']['grid'])} grid points")
    trials = doc["spec"]["trials"]
    for pt in points:
        res = pt["result"]
        if res.get("trials") != trials:
            problems.append(f"{wl.name}: point has {res.get('trials')} trials, expected {trials}")
        if "fault_spec" in pt and sum(res.get("categories", {}).values()) != trials:
            problems.append(f"{wl.name}: survival categories do not sum to {trials}")
    return problems


def check_command(wl: CliWorkload, res: ChildResult, out: Path, *,
                  expected: str | None, against: str = "") -> tuple[list, str | None]:
    """Checks one command; returns (problems, sha256 of its --out JSON).

    ``expected`` is the digest the output must have (``None``: any), and
    ``against`` names where that digest came from, for the report.
    """
    if res.returncode != 0:
        return [f"{wl.name}: repro-ft exited {res.returncode}: {res.stderr.strip()[-500:]}"], None
    if not out.is_file():
        return [f"{wl.name}: repro-ft wrote no --out file"], None
    digest = sha256(out)
    try:
        problems = check_result_json(wl, json.loads(out.read_bytes()))
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"{wl.name}: malformed --out JSON: {exc!r}"]
    if expected is not None and digest != expected:
        problems.append(f"{wl.name}: --out sha256 {digest} differs from {against} {expected}")
    return problems, digest


class CliRunner:
    """Runs one CLI workload's commands inside a run directory."""

    def __init__(self, wl: CliWorkload, seed: int, rundir: Path, outcome: Outcome):
        self.wl, self.seed, self.rundir, self.outcome = wl, seed, rundir, outcome
        self.speed = HostSpeed(rundir)
        self.setups: list[float] = []
        self.reps: list[ChildResult] = []
        #: Timed command walls and probe set-ups, scaled by HostSpeed.
        self.scaled_walls: list[float] = []
        self.scaled_setups: list[float] = []
        #: Digest of the first --out JSON of each input set.
        self.digests: dict[int, str] = {}
        self.outputs: list[Path] = []

    def untraced(self, *, timed: bool = True) -> ChildResult:
        """One checked command; ``timed=False`` is the warm-up, kept out of the metrics."""
        k = len(self.outputs)
        factor = self.speed.sample() if timed else 0.0
        if k % PROBE_EVERY == 0 or (timed and not self.setups):
            setup, host = probe_setup(dict(self.wl.params), self.rundir, f"probe{k}")
            if timed:
                self.setups.append(setup)
                self.scaled_setups.append(factor * setup)
            self.outcome.host = self.outcome.host or host
        out = self.rundir / f"out{k}.json"
        sub = k % SUBSEEDS
        res = run_child(cli_argv(self.wl.argv(self.seed, out, sub=sub)), root=ROOT,
                        logdir=self.rundir, tag=f"cmd{k}")
        if sub in self.digests:
            expected, against = self.digests[sub], f"the first command of seed {self.seed}/{sub}"
        elif self.seed == DEFAULT_SEED:
            expected, against = DIGESTS[self.wl.name][sub], "the digest in digests.json"
        else:
            expected, against = None, ""
        problems, digest = check_command(self.wl, res, out, expected=expected, against=against)
        if digest and sub not in self.digests:
            self.digests[sub] = digest
        self.outcome.check(problems)
        if timed:
            self.reps.append(res)
            self.scaled_walls.append(factor * res.wall_s)
        self.outputs.append(out)
        return res

    def traced(self, k: int) -> tuple[ChildResult, dict]:
        out = self.rundir / f"traced{k}.json"
        spans = self.rundir / f"traced{k}.spans"
        spawned = time.perf_counter()
        argv = [sys.executable, str(PERF / "tracing.py"), repr(spawned), str(spans), "--",
                *self.wl.argv(self.seed, out)]
        res = run_child(argv, root=ROOT, logdir=self.rundir, tag=f"traced{k}")
        problems, _ = check_command(self.wl, res, out, expected=self.digests.get(0),
                                    against="the untraced output")
        self.outcome.check(problems)
        return res, (tracing.load(spans) if spans.is_file() else {"spans": [], "counters": {}})

    def end_to_end(self) -> dict:
        """End-to-end metrics, times scaled by :class:`HostSpeed`."""
        walls = self.scaled_walls
        wall, setup = statistics.median(walls), statistics.median(self.scaled_setups)
        return {
            "setup_s": setup,
            "wall_s": wall,
            "trials_per_s": self.wl.trials_per_command / wall,
            "requests_per_s": 1 / wall,
            "p50_ms": 1e3 * quantile(walls, 0.5),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in self.reps),
        }

    def dispatch(self) -> dict:
        """Post-setup time of ``--backend scalar`` over ``auto``, per survival point."""
        setup = statistics.median(self.setups)
        ratios = {}
        for x in self.wl.points:
            post = {}
            digests = set()
            for backend in ("scalar", "auto"):
                out = self.rundir / f"dispatch-x{x}-{backend}.json"
                argv = self.wl.argv(self.seed, out, trials=self.wl.dispatch_trials,
                                    points=(x,), backend=backend)
                res = run_child(cli_argv(argv), root=ROOT, logdir=self.rundir,
                                tag=f"dispatch-x{x}-{backend}")
                problems, digest = check_command(self.wl, res, out, expected=None)
                self.outcome.check(problems)
                digests.add(digest)
                post[backend] = res.wall_s - setup
            if len(digests) != 1:
                self.outcome.check([f"{self.wl.name}: --backend scalar and auto "
                                    f"disagree at {x}x b^-3d"])
            ratios[f"dispatch.scalar_over_auto.x{x}"] = post["scalar"] / post["auto"]
        return ratios


def run_cli(wl: CliWorkload, seed: int, seconds: float, trace: bool, rundir: Path) -> Outcome:
    outcome = Outcome()
    runner = CliRunner(wl, seed, rundir, outcome)
    # The first command of a run compiles bytecode and fills caches.
    runner.untraced(timed=False)
    pacer = Pacer(seconds)
    if not trace:
        while pacer.more(len(runner.reps)):
            runner.untraced()
            pacer.lap()
        outcome.metrics = runner.end_to_end()
        outcome.raw = {"walls": [r.wall_s for r in runner.reps], "setups": runner.setups,
                       "references": runner.speed.samples, "cpus": [r.cpu_s for r in runner.reps],
                       "reference_cpus": runner.speed.cpu}
        return outcome
    traced_walls: list[float] = []
    trace_data = None
    # Alternate so that drift on a shared host hits both sides alike.
    while pacer.more(len(traced_walls), minimum=1):
        runner.untraced()
        res, trace_data = runner.traced(len(traced_walls))
        traced_walls.append(res.wall_s)
        pacer.lap()
    metrics = layer_metrics(trace_data, traced_walls[-1], outcome)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(r.wall_s for r in runner.reps) - 1
    )
    metrics["host.reference_s"] = statistics.median(runner.speed.samples)
    metrics.update(cli_output_metrics(wl, runner))
    if wl.points:
        metrics.update(runner.dispatch())
    outcome.metrics = metrics
    outcome.raw = {"walls": [r.wall_s for r in runner.reps], "traced_walls": traced_walls,
                   "setups": runner.setups, "references": runner.speed.samples}
    return outcome


def cli_output_metrics(wl: CliWorkload, runner: CliRunner) -> dict:
    """Per-layer counts read from the command's own --out JSON."""
    if not runner.outcome.correct:
        return {}
    doc = json.loads(runner.outputs[0].read_bytes())
    out = {}
    for pt in doc["points"]:
        res = pt["result"]
        if "lifetime_spec" in pt:
            applied = res["masked"] + res["replaced"]
            out["lifetime.arrivals"] = (out.get("lifetime.arrivals", 0) + applied
                                        + res["trials"] - res["exhausted"])
            out["lifetime.recompute_fraction"] = res["replaced"] / applied if applied else 0.0
    return out


# -- per-layer arithmetic -------------------------------------------------------


def layer_metrics(trace_data: dict, traced_wall: float, outcome: Outcome) -> dict:
    """Per-layer metrics from one traced child's spans and counters."""
    spans = trace_data["spans"]
    counters = trace_data["counters"]
    metrics: dict = {}
    attributed = 0.0
    calls: dict = {}
    for name, (self_s, n) in tracing.self_times(spans).items():
        metrics[f"{name}_s"] = self_s
        attributed += self_s
        calls[name] = n
        if f"{name}_calls" in PER_LAYER:
            metrics[f"{name}_calls"] = n
    unattributed = abs(attributed - traced_wall) / traced_wall
    metrics["trace.unattributed_frac"] = unattributed
    if unattributed > MAX_UNATTRIBUTED:
        outcome.check([f"per-layer self times sum to {attributed:.4f}s, "
                       f"{unattributed:.1%} off the traced wall {traced_wall:.4f}s"])
    metrics["api.experiment.chunks"] = calls.get("api.experiment.run_chunk", 0)
    lookups = counters.get("api.construction_cache.lookups", 0)
    if lookups:
        metrics["api.construction_cache.hit_ratio"] = (
            1 - calls.get("api.registry.get", 0) / lookups)
    kernel_trials = counters.get("fastpath.bn_batch.trials", 0)
    if kernel_trials:
        fallback = calls.get("api.adapters.fallback", 0)
        metrics["fastpath.bn_batch.fallback_trials"] = fallback
        metrics["fastpath.bn_batch.fast_trials"] = kernel_trials - fallback
        metrics["fastpath.bn_batch.fast_ratio"] = (kernel_trials - fallback) / kernel_trials
    hops = counters.get("sim.hops", 0)
    if hops:
        sim_total = sum(e - s for name, s, e, _ in spans
                        if name == "fastpath.traffic_batch.simulate")
        metrics["sim.host_us_per_hop"] = 1e6 * sim_total / hops
    for key, value in counters.items():
        if key in PER_LAYER:
            metrics[key] = value
    unknown = sorted(set(metrics) - set(PER_LAYER))
    if unknown:
        raise BenchError(f"trace produced metrics missing from metrics.json: {unknown}")
    return metrics


# -- serve workload -------------------------------------------------------------


@dataclass
class Session:
    setup_s: float = 0.0
    wall_s: float = 0.0
    load_s: float = 0.0
    rss_mb: float = 0.0
    latencies: list = field(default_factory=list)  # (op, ms)
    delivered: int = 0
    #: Failed operations: error frames, client exceptions, replies that
    #: fail a check, and one for a session-level check (daemon, telemetry).
    failed: int = 0
    problems: list = field(default_factory=list)
    #: HostSpeed factor from the reference run before the session.
    factor: float = 1.0
    telemetry: dict = field(default_factory=dict)
    trace: dict | None = None


def _serve_api():
    """The client library of the checkout under test (imported on first use)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.serve import client, protocol

    return client, protocol


async def _wait_port(port_file: Path, daemon: Child, deadline: float) -> int:
    while time.perf_counter() < deadline:
        if port_file.is_file():
            text = port_file.read_text()
            if text.endswith("\n"):
                return int(text)
        if daemon.exited():
            raise BenchError("serve daemon exited before writing its port file")
        await asyncio.sleep(0.002)
    raise BenchError("serve daemon wrote no port file")


def check_reply(op: str, fields: dict, result: dict) -> str:
    """An event must leave the machine alive; a query must conserve messages."""
    if op == "event" and not result.get("alive", False):
        return f"serve: machine died at event {fields}"
    if op == "traffic":
        settled = (result["delivered"] + result["timed_out"]
                   + result.get("undeliverable", 0) + result.get("dropped", 0))
        if result["offered"] != settled:
            return f"serve: traffic query offered {result['offered']} != settled {settled}"
    return ""


async def _client_loop(index: int, port: int, wl: ServeWorkload, seed: int,
                       num_nodes: int, session: Session) -> None:
    """One closed-loop client: next request only after the previous reply.

    Even requests are fault/repair events on this client's own node
    stripe (a fault, then its repair), odd ones are traffic queries.
    """
    client_mod, protocol = _serve_api()
    rng = random.Random(seed * 1009 + index)
    stripe = num_nodes // wl.clients
    lo = index * stripe
    faulty = None
    budget = wl.requests // wl.clients
    client = await client_mod.ServeClient.connect(HOST, port)
    try:
        for r in range(budget):
            if r % 2 == 0:
                if faulty is None:
                    faulty = lo + rng.randrange(stripe)
                    fields = {"kind": "fault", "node": faulty}
                else:
                    fields = {"kind": "repair", "node": faulty}
                    faulty = None
                op = "event"
            else:
                op = "traffic"
                fields = {"pattern": "uniform", "messages": wl.messages,
                          "seed": rng.randrange(1 << 30)}
            t0 = time.perf_counter()
            try:
                result = await client.request(op, machine=wl.machine, **fields)
            except client_mod.ServeRequestError as exc:
                problem = f"serve: {op} error frame: {exc} ({exc.code})"
            else:
                problem = check_reply(op, fields, result)
                session.delivered += result.get("delivered", 0)
            finally:
                session.latencies.append((op, 1e3 * (time.perf_counter() - t0)))
            if problem:
                session.failed += 1
                session.problems.append(problem)
    except (ConnectionError, protocol.ProtocolError, asyncio.IncompleteReadError) as exc:
        session.failed += 1
        session.problems.append(f"serve: client {index} aborted: {exc!r}")
    finally:
        await client.close()


async def _drive(wl: ServeWorkload, seed: int, port_file: Path, daemon: Child,
                 spawned: float, session: Session) -> None:
    client_mod, _ = _serve_api()
    port = await _wait_port(port_file, daemon, spawned + 60.0)
    ctl = await client_mod.ServeClient.connect(HOST, port)
    try:
        info = await ctl.request("create", machine=wl.machine, construction="bn",
                                 params=dict(wl.params))
        session.setup_s = time.perf_counter() - spawned
        t0 = time.perf_counter()
        await asyncio.gather(*(
            _client_loop(i, port, wl, seed, int(info["num_nodes"]), session)
            for i in range(wl.clients)
        ))
        session.load_s = time.perf_counter() - t0
        session.telemetry = await ctl.request("telemetry")
        await ctl.request("shutdown")
    finally:
        await ctl.close()


def check_telemetry(wl: ServeWorkload, session: Session) -> list:
    """The daemon's own counts must agree with what the clients sent."""
    server = session.telemetry["server"]
    machine = session.telemetry["machines"][wl.machine]
    sent = {op: sum(1 for o, _ in session.latencies if o == op) for op in ("event", "traffic")}
    problems = []
    if server["errors"] or server["protocol_errors"]:
        problems.append(f"serve: daemon counted {server['errors']} errors, "
                        f"{server['protocol_errors']} protocol errors")
    for op, n in sent.items():
        if server["requests"].get(op, 0) != n:
            problems.append(f"serve: daemon counted {server['requests'].get(op, 0)} {op} "
                            f"requests, clients sent {n}")
    if not machine["alive"]:
        problems.append(f"serve: machine dead ({machine['death_category']})")
    return problems


def serve_session(wl: ServeWorkload, seed: int, rundir: Path, tag: str, *,
                  traced: bool) -> Session:
    """One daemon session: spawn, create, closed-loop load, checks, shutdown."""
    session = Session()
    port_file = rundir / f"{tag}.port"
    spans = rundir / f"{tag}.spans"
    args = ["--log-level", "warning", "serve", "--port", "0", "--port-file", str(port_file)]
    spawned = time.perf_counter()
    argv = ([sys.executable, str(PERF / "tracing.py"), repr(spawned), str(spans), "--", *args]
            if traced else cli_argv(args))
    daemon = Child(argv, root=ROOT, logdir=rundir, tag=tag)
    _, protocol = _serve_api()
    problems = []
    try:
        asyncio.run(_drive(wl, seed, port_file, daemon, spawned, session))
    except (BenchError, OSError, protocol.ProtocolError, asyncio.IncompleteReadError) as exc:
        problems.append(f"serve: session failed: {exc!r}")
        daemon.kill()
    except BaseException:
        daemon.kill()
        raise
    finally:
        res = daemon.wait()
    session.wall_s = res.wall_s
    session.rss_mb = res.peak_rss_mb
    if session.telemetry:
        problems.extend(check_telemetry(wl, session))
    if res.returncode != 0:
        problems.append(f"serve: daemon exited {res.returncode}: {res.stderr.strip()[-500:]}")
    session.failed += bool(problems)
    session.problems.extend(problems)
    if traced and spans.is_file():
        session.trace = tracing.load(spans)
    return session


def _record(outcome: Outcome, session: Session) -> None:
    outcome.attempted += max(len(session.latencies), 1)
    outcome.failed += session.failed
    outcome.problems.extend(session.problems)


def serve_end_to_end(sessions: list) -> dict:
    """End-to-end metrics, each session's times scaled by its ``factor``."""
    latencies = [s.factor * ms for s in sessions for _, ms in s.latencies]
    load = [s.factor * s.load_s for s in sessions]
    return {
        "setup_s": statistics.median(s.factor * s.setup_s for s in sessions),
        "wall_s": statistics.median(s.factor * s.wall_s for s in sessions),
        "trials_per_s": statistics.median(
            sum(1 for op, _ in s.latencies if op == "traffic") / t for s, t in zip(sessions, load)),
        "requests_per_s": statistics.median(len(s.latencies) / t for s, t in zip(sessions, load)),
        "p50_ms": quantile(latencies, 0.5),
        "peak_rss_mb": statistics.median(s.rss_mb for s in sessions),
    }


def serve_latency_metrics(sessions: list) -> dict:
    """Per-layer numbers that need no spans: telemetry and client latencies."""
    latencies = [ms for s in sessions for _, ms in s.latencies]
    by_op = {op: [ms for s in sessions for o, ms in s.latencies if o == op]
             for op in ("event", "traffic")}
    service = statistics.median(s.telemetry["server"]["service"]["p50_ms"] for s in sessions)
    p50 = quantile(latencies, 0.5)
    wire = sum(s.telemetry["server"]["bytes"]["in"] + s.telemetry["server"]["bytes"]["out"]
               for s in sessions)
    requests = sum(sum(s.telemetry["server"]["requests"].values()) for s in sessions)
    return {
        "serve.service_ms_p50": service,
        "serve.wait_ms_p50": p50 - service,
        "serve.event_p50_ms": quantile(by_op["event"], 0.5),
        "serve.traffic_p50_ms": quantile(by_op["traffic"], 0.5),
        "serve.p90_ms": quantile(latencies, 0.9),
        "serve.p99_ms": quantile(latencies, 0.99),
        "serve.p99_samples": len(latencies),
        "serve.bytes_per_request": wire / requests,
        "messages_per_s": sum(s.delivered for s in sessions) / sum(s.load_s for s in sessions),
    }


def run_serve(wl: ServeWorkload, seed: int, seconds: float, trace: bool, rundir: Path) -> Outcome:
    outcome = Outcome()
    _, outcome.host = probe_setup(dict(wl.params), rundir, "host")
    # A checked warm-up session, kept out of the metrics like the CLI warm-up.
    _record(outcome, serve_session(wl, seed * SUBSEEDS, rundir, "warmup", traced=False))
    speed = HostSpeed(rundir)
    pacer = Pacer(seconds)
    plain: list[Session] = []
    traced: list[Session] = []
    while pacer.more(len(traced), minimum=1) if trace else pacer.more(len(plain)):
        factor = speed.sample()
        # Sessions rotate over input sets like CLI commands (the warm-up had set 0).
        sub = (len(plain) + 1) % SUBSEEDS
        session = serve_session(wl, seed * SUBSEEDS + sub, rundir, f"session{len(plain)}",
                                traced=False)
        session.factor = factor
        _record(outcome, session)
        plain.append(session)
        if trace:
            session = serve_session(wl, seed * SUBSEEDS, rundir, f"traced{len(traced)}",
                                    traced=True)
            _record(outcome, session)
            traced.append(session)
        pacer.lap()
    outcome.raw = {"walls": [s.wall_s for s in plain], "setups": [s.setup_s for s in plain],
                   "traced_walls": [s.wall_s for s in traced], "references": speed.samples}
    # A failed session has no load phase or telemetry to measure; the run
    # is already reported incorrect, with whatever the others measured.
    plain = [s for s in plain if s.telemetry]
    if not plain:
        return outcome
    if not trace:
        outcome.metrics = serve_end_to_end(plain)
        return outcome
    last = traced[-1]
    metrics = layer_metrics(last.trace or {"spans": [], "counters": {}}, last.wall_s, outcome)
    metrics.update(serve_latency_metrics(plain))
    metrics["host.reference_s"] = statistics.median(speed.samples)
    metrics["trace.overhead_frac"] = (
        statistics.median(s.wall_s for s in traced) / statistics.median(s.wall_s for s in plain)
        - 1
    )
    outcome.metrics = metrics
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool, rundir: Path) -> Outcome:
    wl = WORKLOADS[name]
    if isinstance(wl, ServeWorkload):
        outcome = run_serve(wl, seed, seconds, trace, rundir)
    else:
        outcome = run_cli(wl, seed, seconds, trace, rundir)
    if trace:
        outcome.metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    return outcome
