"""The helper engine (`fedcsi.engine`): a leaf module that nn reaches
through one entry, and helper processes that leave every byte as it is
computed without them."""
import ast
import functools
import logging
import mmap
import os
import pickle
import platform
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import default_batch, desk_spec

from fedcsi import engine, nn

SOURCES = Path(engine.__file__).parent


# --------------------------- module boundary ------------------------------

def _tree(module):
    return ast.parse((SOURCES / f"{module}.py").read_text())


def test_engine_imports_nothing_from_its_package():
    for node in ast.walk(_tree("engine")):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "fedcsi", node.module
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "fedcsi" for alias in node.names)


def test_nn_uses_the_engine_through_its_one_entry():
    tree = _tree("nn")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "engine"}
    assert used == {"run"}
    # nothing of it imported by name
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("engine")]


def test_no_task_goes_by_name():
    for module in ("engine", "nn"):
        tree = _tree(module)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert "_TASKS" not in names and not strings & {"forward", "gradient"}, module


def test_helpers_run_the_engines_serve_loop(helpers):
    helpers(1)
    spec, p, xs, _ = default_batch(4)
    nn.forward_batch(spec, p, xs)
    assert engine._pool[0].process.args[2].endswith(
        "; import fedcsi.engine as engine; engine._serve()")


# --------------------------- helper processes -----------------------------

def _engine_bytes(spec, p, xs, ys):
    grad, loss = nn.batch_gradient(spec, p, xs, ys)
    return nn.forward_batch(spec, p, xs).tobytes(), grad.tobytes(), loss


def _gradient_jobs():
    """Three default-spec jobs of 4, 2 and 3 samples with their own params:
    five chunks of at most two samples.  Cut into three parts, the first
    job's two chunks fall into two parts."""
    jobs = []
    for j, batch in enumerate((4, 2, 3)):
        spec, p, xs, ys = default_batch(batch, seed=70 + j)
        jobs.append((p, xs, ys))
    return spec, jobs


def _job_bytes(results):
    return [(grad.tobytes(), loss) for grad, loss in results]


def _share_parts(spec, units, forward_samples):
    """The parts of a call of `units` units and the work of
    `forward_samples` forward samples, given enough helpers: one for each
    _SHARE_MACS forward multiply-adds begun, and at most one a unit."""
    return min(units, -(-forward_samples * nn._sample_macs(spec) // engine._SHARE_MACS))


def _shared_call(name):
    """An engine call that is shared out, giving its bytes, and the number
    of parts it is cut into with enough helpers: a desk-spec one, or the
    default-spec `_gradient_jobs`."""
    if name == "jobs":
        # nine samples in five chunks, each sample counted at three forwards
        spec, jobs = _gradient_jobs()
        return lambda: _job_bytes(nn.batch_gradients(spec, jobs)), _share_parts(spec, 5, 27)
    spec, rng = desk_spec(), np.random.default_rng(65)
    xs = rng.normal(size=(24,) + spec.input_shape)
    if name == "desk gradient":
        # two chunks of 13 and 11 samples
        ys = rng.normal(size=(24,) + spec.input_shape[:2] + (2,))
        p = nn.init_params(spec, 65)
        return (lambda: nn.batch_gradient(spec, p, xs, ys)[0].tobytes(),
                _share_parts(spec, 2, 3 * 24))
    # 10 draws over 24 samples: parts of samples, each run under every draw
    draws = np.stack([nn.init_params(spec, seed) for seed in range(10)])
    return lambda: nn.forward_sum(spec, draws, xs).tobytes(), _share_parts(spec, 24, 240)


@pytest.mark.parametrize("batch", [1, 2, 5, 64, "desk gradient", "ensemble", "jobs"])
def test_engine_bytes_do_not_depend_on_the_helper_count(helpers, batch):
    if isinstance(batch, str):
        call, parts = _shared_call(batch)
    else:
        spec, p, xs, ys = default_batch(batch)
        call = lambda: _engine_bytes(spec, p, xs, ys)  # noqa: E731
        # the forward's parts: 1, 2, 5 and 64
        parts = _share_parts(spec, batch, batch)
    results = []
    for count in (0, 1, 2):
        helpers(count)
        results.append(call())
        assert len(engine._pool) >= min(count, parts - 1)
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("count", [0, 2])
def test_batch_gradients_gives_each_job_the_bytes_of_its_own_call(helpers, count):
    spec, jobs = _gradient_jobs()
    helpers(0)
    alone = [nn.batch_gradient(spec, *job) for job in jobs]
    helpers(count)
    assert _job_bytes(nn.batch_gradients(spec, jobs)) == _job_bytes(alone)
    assert len(engine._pool) >= count


def _recorded_asks(monkeypatch):
    """The (helper, part) of each `_Helper.ask` from now on."""
    asks, ask = [], engine._Helper.ask
    monkeypatch.setattr(engine._Helper, "ask", lambda helper, part, *args: asks.append(
        (helper, part)) or ask(helper, part, *args))
    return asks


@pytest.mark.parametrize("count", [0, 1, 2])
def test_forward_sum_adds_each_draws_own_forward_in_draw_order(helpers, monkeypatch, count):
    # 9 default-spec samples make passes of 4, 4 and 1 here; each pass runs
    # every draw with one layer-0 unfold.  An arena of the draws' params and
    # 64 KiB holds two samples' inputs and outputs, so a shared call runs in
    # waves of two samples a process
    spec, _, xs, _ = default_batch(9)
    draws = np.stack([nn.init_params(spec, seed) for seed in range(3)])
    helpers(0)
    want = np.zeros(xs.shape[:3] + (2,))
    for params in draws:
        want += nn.forward_batch(spec, params, xs)
    monkeypatch.setattr(engine, "_ARENA_BYTES", draws.nbytes + (1 << 16))
    asks = _recorded_asks(monkeypatch)
    helpers(count)
    assert nn.forward_sum(spec, draws, xs).tobytes() == want.tobytes()
    assert len(engine._pool) >= count
    assert all([h for h, _ in asks].count(helper) > 1 for helper in engine._pool[:count])


@pytest.mark.parametrize("call, parent, total", [("gradient", 3, 5), ("forward", 8, 15)])
def test_the_parent_takes_the_larger_part_of_an_uneven_split(helpers, monkeypatch, call,
                                                              parent, total):
    # it sends no request and reads no reply: five desk jobs of one chunk
    # each (a FedBE desk round's local step), or 15 default-spec samples
    asks = _recorded_asks(monkeypatch)
    helpers(1)
    if call == "gradient":
        spec, rng = desk_spec(), np.random.default_rng(68)
        jobs = [(nn.init_params(spec, j), rng.normal(size=(8,) + spec.input_shape),
                 rng.normal(size=(8,) + spec.input_shape[:2] + (2,))) for j in range(5)]
        nn.batch_gradients(spec, jobs)
        [(_, (_, part, _))] = asks
        helper = len(part)  # chunks
    else:
        spec, p, xs, _ = default_batch(total)
        nn.forward_batch(spec, p, xs)
        [(_, (_, [(_, [part], _)], _))] = asks
        helper = len(part)  # samples
    assert (total - helper, helper) == (parent, total - parent)


@pytest.mark.parametrize("spec, batch, started", [
    pytest.param(desk_spec(), 40, 1, id="desk-40"),
    pytest.param(desk_spec(), 29, 1, id="desk-29"),
    pytest.param(desk_spec(), 28, 1, id="desk-28"),
    pytest.param(desk_spec(), 18, 1, id="desk-18"),
    pytest.param(desk_spec(), 17, 0, id="desk-17"),
    pytest.param(desk_spec(), 8, 0, id="desk-8"),
    pytest.param(nn.NetworkSpec(layers=(nn.LayerSpec(3, 3, 2, "selu"),), input_shape=(4, 3, 2)),
                 1000, 0, id="tiny-1000"),
])
def test_a_forward_is_shared_from_its_measured_break_even(helpers, spec, batch, started):
    # a desk-spec forward of up to 17 samples is under 5 * 2^20
    # multiply-adds, about a millisecond of work, and stays here; one of
    # 28 samples, under the older 2^23 floor, is shared as well now
    engine._stop_helpers()
    helpers(1)
    xs = np.random.default_rng(66).normal(size=(batch,) + spec.input_shape)
    nn.forward_batch(spec, nn.init_params(spec, 66), xs)
    assert len(engine._pool) == started


def test_one_cpu_starts_no_helper(monkeypatch):
    engine._stop_helpers()
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    spec, p, xs, ys = default_batch(6)
    nn.batch_gradient(spec, p, xs, ys)
    assert engine._pool == []


@pytest.mark.parametrize("when", ["between calls", "during a call"])
def test_killed_helper_has_its_part_computed_here(helpers, monkeypatch, caplog, when):
    # the call finishes with the same bytes, and the next one starts a new helper
    spec, p, xs, ys = default_batch(5)
    helpers(0)
    want = _engine_bytes(spec, p, xs, ys)
    helpers(1)
    nn.forward_batch(spec, p, xs)
    victim = engine._pool[0].process

    def kill():
        if victim.poll() is None:
            victim.kill()
            victim.wait()

    if when == "between calls":
        kill()
    else:
        # the helper dies while this process computes its own chunks
        answer = engine._answer

        def killing(*args, **kwargs):
            kill()
            return answer(*args, **kwargs)

        monkeypatch.setattr(engine, "_answer", killing)
    with caplog.at_level(logging.WARNING, logger="fedcsi.engine"):
        assert _engine_bytes(spec, p, xs, ys) == want
    assert f"engine helper {victim.pid} failed" in caplog.text
    assert victim not in [h.process for h in engine._pool]
    assert _engine_bytes(spec, p, xs, ys) == want
    assert len(engine._pool) == 1 and engine._pool[0].process.poll() is None


def test_helper_that_dies_mid_reply_has_only_its_unread_results_computed_here(
        helpers, monkeypatch, caplog):
    # the helper stores its part's four passes in the arena, but its reply
    # breaks off in the place of the second, after the one of the first
    spec, p, xs, _ = default_batch(32)
    helpers(0)
    want = nn.forward_batch(spec, p, xs).tobytes()
    serve = ("import mmap, pickle; "
             "task, jobs, step, size, end = pickle.load(sys.stdin.buffer); "
             "arena = mmap.mmap(int(sys.argv[1]), size); places = []\n"
             "for result in engine._answer(task, engine._load(arena, jobs), step):\n"
             "    place, end = engine._store(arena, end, result)\n"
             "    places.append(pickle.dumps(place))\n"
             "sys.stdout.buffer.write(pickle.dumps(len(places)) + places[0]"
             " + places[1][:len(places[1]) // 2])")
    monkeypatch.setattr(engine._Helper, "serve", serve)
    passes = []
    answer = engine._answer

    def counting(*args, **kwargs):
        for result in answer(*args, **kwargs):
            passes.append(1)
            yield result

    monkeypatch.setattr(engine, "_answer", counting)
    helpers(1)
    with caplog.at_level(logging.WARNING, logger="fedcsi.engine"):
        assert nn.forward_batch(spec, p, xs).tobytes() == want
    assert "failed; computing its part here" in caplog.text
    # this process's own four passes, and the three it did not read
    assert len(passes) == 7


def test_helper_that_cannot_start_leaves_its_part_here(helpers, monkeypatch, caplog):
    spec, p, xs, ys = default_batch(5)
    helpers(0)
    want = _engine_bytes(spec, p, xs, ys)
    engine._stop_helpers()
    helpers(1)

    def no_process(*args, **kwargs):
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    with caplog.at_level(logging.WARNING, logger="fedcsi.engine"):
        assert _engine_bytes(spec, p, xs, ys) == want
    assert "cannot start an engine helper" in caplog.text
    assert engine._pool == []


def _open_fds():
    return sorted(os.listdir("/dev/fd"))


def test_helper_whose_arena_cannot_be_mapped_leaves_nothing_behind(helpers, monkeypatch,
                                                                    caplog):
    # no descriptor stays open and no child runs on; the call computes its
    # part here, and the next call starts a helper
    spec, p, xs, _ = default_batch(5)
    helpers(0)
    want = nn.forward_batch(spec, p, xs).tobytes()
    engine._stop_helpers()
    helpers(1)
    started, popen, real_map, failures = [], subprocess.Popen, mmap.mmap, [1]

    def recorded(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    def fail_once(*args, **kwargs):
        if failures.pop() if failures else 0:
            raise OSError("cannot map the arena")
        return real_map(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", recorded)
    monkeypatch.setattr(mmap, "mmap", fail_once)
    fds = _open_fds()
    with caplog.at_level(logging.WARNING, logger="fedcsi.engine"):
        assert nn.forward_batch(spec, p, xs).tobytes() == want
    assert "cannot start an engine helper: cannot map the arena" in caplog.text
    assert _open_fds() == fds
    assert engine._pool == [] and all(process.poll() is not None for process in started)
    assert nn.forward_batch(spec, p, xs).tobytes() == want
    assert [helper.process for helper in engine._pool] == started


def test_call_that_raises_leaves_no_reply_behind(helpers, monkeypatch):
    # the helper of a call that raised holds replies nobody read; the next
    # call must not take them for its own
    spec, p, xs, ys = default_batch(4)
    helpers(0)
    want = _engine_bytes(spec, p, xs, ys)
    helpers(1)
    other = default_batch(4, seed=64)
    nn.batch_gradient(*other)
    answer = engine._answer

    def fail(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_answer", fail)
    with pytest.raises(KeyboardInterrupt):
        nn.batch_gradient(*other)
    monkeypatch.setattr(engine, "_answer", answer)
    assert _engine_bytes(spec, p, xs, ys) == want


def test_helper_answers_a_part_with_one_reply():
    # the parent reads one reply a part; with one a pass, a helper that cut
    # its part into other passes than the parent expected left it blocked
    spec, p, xs, _ = default_batch(8)
    # two passes
    part = (functools.partial(nn._forward_pass, spec), [(p[None], [xs], ())], nn._pass_size(spec))
    helper = engine._Helper()
    replies = []
    try:
        helper.ask(part, engine._ARENA_BYTES)
        helper.process.stdin.close()
        while True:
            try:
                count = pickle.load(helper.process.stdout)
            except EOFError:
                break
            replies.append([engine._load(helper.arena, pickle.load(helper.process.stdout)).tobytes()
                            for _ in range(count)])
    finally:
        helper.close()
    assert len(replies) == 1
    assert replies[0] == [r.tobytes() for r in engine._answer(*part)]


def test_a_helper_reply_is_not_held_whole(helpers):
    # each pass of a helper's reply goes into the output as it is read, so
    # beyond the output a shared forward holds the same few MB at any batch
    spec, p, xs, _ = default_batch(1200)
    helpers(1)
    nn.forward_batch(spec, p, xs[:8])  # start the helper outside the trace
    extra = []
    for n in (300, 1200):
        tracemalloc.start()
        try:
            out = nn.forward_batch(spec, p, xs[:n])
            extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    # a reply read whole: about 7 MB more at 1200 samples than at 300
    assert extra[1] <= extra[0] + (1 << 20)


def _wave_call(name, monkeypatch):
    """A call whose helper parts do not fit one arena, giving its bytes;
    and the arena bytes of a part of one unit where that grows the arena:
    a 1200-sample default-spec forward, a gradient of 64 three-sample
    default-spec jobs (two chunks each), or an ensemble of 10 desk draws
    over 24 samples, whose 68 KB of params take more than an arena of
    64 KiB."""
    if name == "forward":
        spec, p, xs, _ = default_batch(1200)
        return lambda: nn.forward_batch(spec, p, xs).tobytes(), 0
    if name == "gradient":
        jobs = [default_batch(3, seed=100 + j)[1:] for j in range(64)]
        spec = nn.default_network_spec()
        return lambda: _job_bytes(nn.batch_gradients(spec, jobs)), 0
    spec, rng = desk_spec(), np.random.default_rng(67)
    xs = rng.normal(size=(24,) + spec.input_shape)
    draws = np.stack([nn.init_params(spec, seed) for seed in range(10)])
    monkeypatch.setattr(engine, "_ARENA_BYTES", 1 << 16)
    # the draws' params, a sample and its output, as large as the sample
    return lambda: nn.forward_sum(spec, draws, xs).tobytes(), draws.nbytes + 2 * xs[0].nbytes


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("name", ["forward", "gradient", "ensemble"])
def test_a_call_beyond_the_arena_runs_in_waves_with_the_same_bytes(
        helpers, monkeypatch, name, count):
    call, unit = _wave_call(name, monkeypatch)
    helpers(0)
    want = call()
    engine._stop_helpers()  # so that every arena starts at _ARENA_BYTES
    asks = _recorded_asks(monkeypatch)
    helpers(count)
    assert call() == want
    assert len(engine._pool) == count
    # each helper took a request a wave, and more than one wave
    assert all([h for h, _ in asks].count(helper) > 1 for helper in engine._pool)
    # the arena stays at its size, or grows to hold a part's params and one
    # unit where they do not fit, and the few bytes that align its arrays
    assert all(len(helper.arena) <= max(engine._ARENA_BYTES, unit + 4096) for helper in engine._pool)
    assert any(len(helper.arena) > engine._ARENA_BYTES for helper in engine._pool) == bool(unit)


def test_helper_killed_between_waves_has_its_later_parts_computed_here(
        helpers, monkeypatch, caplog):
    spec, p, xs, _ = default_batch(64)
    helpers(0)
    want = nn.forward_batch(spec, p, xs).tobytes()
    # an arena of 256 KiB holds the params and six samples' inputs and
    # outputs: the two parts take waves of twelve samples
    monkeypatch.setattr(engine, "_ARENA_BYTES", 1 << 18)
    answer, killed = engine._Helper.answer, []

    def answer_then_die(helper, part, take):
        answer(helper, part, take)
        if not killed:
            killed.append(helper.process.pid)
            helper.process.kill()
            helper.process.wait()

    monkeypatch.setattr(engine._Helper, "answer", answer_then_die)
    helpers(1)
    with caplog.at_level(logging.WARNING, logger="fedcsi.engine"):
        assert nn.forward_batch(spec, p, xs).tobytes() == want
    assert f"engine helper {killed[0]} failed" in caplog.text
    assert engine._pool == []


@pytest.mark.skipif(not Path("/proc/self/schedstat").exists(),
                    reason="reads /proc/<pid>/schedstat")
def test_an_idle_helper_stops_polling(helpers):
    helpers(1)
    spec, p, xs, _ = default_batch(4)
    nn.forward_batch(spec, p, xs)
    schedstat = Path(f"/proc/{engine._pool[0].process.pid}/schedstat")

    def cpu_seconds():
        # the first field: the nanoseconds the task has run on a CPU
        return int(schedstat.read_text().split()[0]) / 1e9

    # the count of a running task lags by up to a scheduler tick, so read
    # it once the helper has had two poll windows to go to sleep
    time.sleep(2 * engine._POLL_SECONDS)
    before = cpu_seconds()
    if before == 0:
        pytest.skip("the kernel reports no run time in schedstat")
    time.sleep(20 * engine._POLL_SECONDS)
    # a sleeping helper runs for none of this; one that kept polling would
    # run for about 20 windows
    assert cpu_seconds() - before < 2 * engine._POLL_SECONDS


def test_threads_share_the_helpers_safely(helpers):
    # one thread at a time uses the helpers; the others compute their
    # chunks themselves, so no thread reads another's replies
    helpers(1)
    batches = [default_batch(4, seed=70 + i) for i in range(4)]
    want = [nn.batch_gradient(*b)[0].tobytes() for b in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            futures = [pool.submit(lambda b: [nn.batch_gradient(*b)[0].tobytes()
                                              for _ in range(5)], b) for b in batches]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[w] * 5 for w in want]


_HELPER_PROBE = """
import os, sys, time
import numpy as np
from fedcsi import engine, nn
engine._helper_count = lambda: 1
spec = nn.default_network_spec()
nn.forward_batch(spec, nn.init_params(spec, 0), np.zeros((4,) + spec.input_shape))
print(*(h.process.pid for h in engine._pool), flush=True)
print(*(os.fstat(h.fd).st_nlink for h in engine._pool), flush=True)
if sys.argv[1] == "sigkill":
    time.sleep(60)  # until killed
"""


def _running(pid):
    """Whether process pid exists and is not a zombie."""
    stat = subprocess.run(["ps", "-o", "stat=", "-p", str(pid)], capture_output=True, text=True)
    return stat.returncode == 0 and not stat.stdout.strip().startswith("Z")


def _probe_env():
    paths = [str(Path(nn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.mark.parametrize("end", ["exit", "sigkill"])
def test_helpers_do_not_outlive_their_process(end):
    probe = subprocess.Popen([sys.executable, "-c", _HELPER_PROBE, end], env=_probe_env(),
                             stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in probe.stdout.readline().split()]
        links = [int(n) for n in probe.stdout.readline().split()]
        if end == "sigkill":
            probe.kill()
        probe.wait(timeout=60)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
        probe.stdout.close()
    assert len(pids) == 1
    # the arena has no name in any directory, so it goes with the last
    # process that has it open
    assert links == [0]
    deadline = time.monotonic() + 5
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def _helpers_started_in_worker():
    engine._helper_count = lambda: 1
    spec, p, xs, _ = default_batch(4)
    nn.forward_batch(spec, p, xs)
    return len(engine._pool)


def test_process_pool_worker_starts_no_helper(helpers):
    helpers(1)
    spec, p, xs, _ = default_batch(4)
    nn.forward_batch(spec, p, xs)  # a forked worker inherits this helper
    assert len(engine._pool) == 1
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(_helpers_started_in_worker).result() == 0

# --------------------------- allocator policy -----------------------------

_FAULT_PROBE = """
import resource
from fedcsi import nn
from fedcsi.aggregation import Aggregator
from fedcsi.channel import ChannelConfig
from fedcsi.orchestrator import ExperimentConfig, run_experiment

layers = tuple(nn.LayerSpec(3, 3, f, a) for f, a in zip((10, 6, 2), ("selu", "softplus", "selu")))
config = ExperimentConfig(
    n_sbs=5, rounds=1, cache_len_lo=6, cache_len_hi=8, i_min=8, pretrain_size=24,
    validation_size=8, pretrain_epochs=2, epochs=1, batch_size=64, learning_rate=2e-3,
    network=nn.NetworkSpec(layers=layers, input_shape=(36, 10, 2)),
    channel=ChannelConfig(grid_height=36, grid_width=10, max_delay_taps=1,
                          doppler_spread=0.02, pilot_noise_stddev=0.15),
    aggregator=Aggregator(kind="fedbe", fedbe_samples=10, fedbe_distill_epochs=7),
)
run_experiment(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy applies to glibc only")
def test_repeat_run_reuses_freed_pages():
    # With glibc's default thresholds the engine's MB-sized temporaries went
    # back to the kernel after each call and were faulted in again by the
    # next: about 14,000 minor faults in the second run, against fewer than
    # ten with the thresholds fixed when fedcsi.engine is imported.
    paths = [str(Path(nn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout.split()[-1]) < 1000
