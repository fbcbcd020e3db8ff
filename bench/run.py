"""Benchmark of lexner: training, one-shot tagging and the C3 gradient audit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
`src/`. All inputs are generated from `--seed`. Each workload is a closed
loop in one process: it repeats whole passes of a fixed unit of work until
`--seconds` have passed, checks every output, and prints as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}. Earlier
lines carry the environment and a report with the workload's own figures.

With `--trace 0` the metrics are the end-to-end ones:

    work_s       median time of one unit of steady work: one training epoch
                 (train_*), one prepare+decode pass over the tagging
                 sentences (tag_lex50k), the C3 seed subset (gradcheck_c3)
    setup_s      median time before the first unit of steady work, over
                 several set-ups in the run
    peak_rss_mb  peak resident memory of the benchmark process

work_s and setup_s are in reference seconds: wall time rescaled by the
speed of a fixed kernel that runs interleaved with the work (see
Reference). Wall seconds are in the report line as work_wall_s and
setup_wall_s.

With `--trace 1` the package's public functions are wrapped at module
boundaries (see spans.py) and the metrics are per layer. The spans are
written to .bench_out/ when the run ends.

BLAS is pinned to one thread and malloc to one arena, in this process and
its children only.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from spans import LAYERS, Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MAX_REL_ERR = 1e-4          # the C3 acceptance bound
C3_SHAPES = dict(max_n=5, d_c=4, d_h=4, d_w=3)
VERIFY_SENTENCES = 20       # tagging sentences decoded again after timing
M_ARENA_MAX = -8            # glibc mallopt parameter
MALLOC_ARENAS = 1
REF_STEPS = 20              # GRU steps in one block of the reference kernel
REF_WARMUP = 50             # blocks run once before any timing
REF_AROUND = 60             # blocks run right before and right after a timed call
REF_BLOCK_S = 0.002         # nominal time of one reference block, see Reference


@dataclasses.dataclass(frozen=True)
class Sizes:
    lexicon: int = 50_000
    train: int = 8              # sentences, in one batch of the reference size 32
    epochs: int = 1             # one timed epoch per train() call
    dev: int = 4
    train_len: tuple = (10, 120)
    tag: int = 120
    tag_len: tuple = (40, 200)
    c3_seeds: tuple = (0, 1)
    setups: int = 5             # package imports timed per gradcheck_c3 run
    d_c: int = 64
    bigru_total: int = 512
    d_w: int = 50


SMOKE = Sizes(lexicon=2_000, train=6, dev=2, train_len=(5, 20), tag=12, tag_len=(5, 30),
              c3_seeds=(0,), setups=2, d_c=8, bigru_total=16, d_w=8)

END_TO_END = {"work_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "encoder.forward_s": "s", "encoder.backward_s": "s",
    "crf.nll_s": "s", "crf.viterbi_s": "s",
    "fusion.forward_s": "s", "fusion.backward_s": "s",
    "fusion.calls": "count", "fusion.words": "count",
    "lexicon.build_s": "s", "lexicon.match_s": "s",
    "lexicon.coverage": "ratio", "lexicon.words_per_char": "words/char",
    "params.grad_alloc_s": "s", "params.reduce_s": "s", "params.grad_bytes": "bytes",
    "params.load_s": "s", "params.snapshot_s": "s",
    "trainer.adam_s": "s", "trainer.adam_values": "count", "trainer.evaluate_s": "s",
    "numerics.loss_evals": "count", "numerics.backward_per_eval": "count/eval",
    "model.loss_self_s": "s", "model.decode_self_s": "s",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("share", "ratio"))},
    "trace.unaccounted_share": "ratio", "trace.overhead": "ratio",
}


@dataclasses.dataclass
class Outcome:
    work_s: list            # each unit of work, in reference seconds (see Reference)
    work_wall_s: list       # the same in wall seconds
    setup_s: list           # each set-up, in reference seconds
    setup_wall_s: list      # the same in wall seconds
    attempted: int
    failed: int
    report: dict
    passes: int             # timed passes
    phase_s: float          # time of the timed passes
    n_setups: int = 0       # set-ups the trace saw; 0 means one per pass


def import_lexner():
    sys.path.insert(0, str(SRC))
    try:
        import lexner
    except ImportError as exc:
        sys.exit(f"bench: cannot import lexner from {SRC}: {exc}")
    if Path(lexner.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: lexner was imported from {lexner.__file__}, not from {SRC}")
    return lexner


def timed_passes(seconds: float, one_pass) -> list:
    """Whole passes until `seconds` have elapsed; always at least one."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        gc.collect()    # no pass pays for the garbage of the one before
        out.append(one_pass())
    return out


class Reference:
    """A fixed GRU-like computation that does not use lexner.

    On a shared host the speed of this process swings by up to 2x within
    seconds while its CPU time keeps pace with wall time, so the loss is in
    execution speed. Blocks of this kernel run on the same thread just
    before and after (or between the sentences of) each timed piece of
    work, and the work's wall time is rescaled to the speed at which one
    block takes REF_BLOCK_S: reference seconds = wall seconds * REF_BLOCK_S
    / mean block time. That cancels most of the swing. The kernel does not
    depend on the program, so a change to the program moves only the work.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((768, 320)) * 0.05
        self.x = rng.standard_normal(64)
        self.h0 = np.zeros(256)
        self.blocks(REF_WARMUP)

    def block(self) -> float:
        np, w, x, h = self.np, self.w, self.x, self.h0
        t0 = time.perf_counter()
        for _ in range(REF_STEPS):
            z = w @ np.concatenate([x, h])
            r = 1.0 / (1.0 + np.exp(-z[:512]))
            h = (1.0 - r[256:]) * h + r[256:] * np.tanh(z[512:] + r[:256] * h)
        return time.perf_counter() - t0

    def blocks(self, n: int) -> list:
        return [self.block() for _ in range(n)]

    @staticmethod
    def scale(blocks: list) -> float:
        """Reference seconds per wall second, from the blocks timed around the work."""
        return REF_BLOCK_S / statistics.fmean(blocks)


# ---------------------------------------------------------------- training

def params_digest(store) -> str:
    digest = hashlib.sha256()
    for name, p in store.items():
        digest.update(name.encode())
        digest.update(p.value.tobytes())
    return digest.hexdigest()[:16]


def train_workload(lx, size: Sizes, args, tracer, workers: int) -> Outcome:
    import numpy as np
    from workload import Generator

    ref = Reference()
    gen = Generator(args.seed, size.lexicon)
    train_set = gen.dataset("train", size.train, *size.train_len)
    dev_set = gen.dataset("dev", size.dev, *size.train_len)
    chars = sum(len(s) for s in train_set.sentences)
    config = lx.TrainConfig(epochs=size.epochs, seed=args.seed, workers=workers,
                            d_c=size.d_c, bigru_total=size.bigru_total, d_w=size.d_w)

    def one_pass(cfg=config, setup="setup", phase="phase"):
        # the epoch runs inside train(), so the reference runs right around it
        blocks = ref.blocks(REF_AROUND)
        tracer.phase = setup
        t0 = time.perf_counter()
        lexicon = lx.build_lexicon(gen.words, None, dim=cfg.d_w,
                                   rng=np.random.default_rng(cfg.seed))
        lexicon_s = time.perf_counter() - t0
        tracer.phase = phase
        t1 = time.perf_counter()
        result = lx.train(train_set, dev_set, lexicon, cfg)
        train_s = time.perf_counter() - t1
        tracer.phase = None
        scale = ref.scale(blocks + ref.blocks(REF_AROUND))
        epoch_s = [r["seconds"] for r in result.history]
        # train() prepares inputs and initialises parameters before its first epoch
        setup_s = lexicon_s + train_s - sum(epoch_s)
        return {"work_wall_s": epoch_s, "work_s": [s * scale for s in epoch_s],
                "setup_wall_s": setup_s, "setup_s": setup_s * scale, "phase_s": train_s,
                "nll": result.history[-1]["train_nll"],
                "params": params_digest(result.last.store)}

    passes = timed_passes(args.seconds, one_pass)
    nll, params = passes[0]["nll"], passes[0]["params"]

    def same(p):
        return p["nll"].hex() == nll.hex() and p["params"] == params

    failed = sum(size.train for p in passes
                 if not (np.isfinite(p["nll"]) and p["nll"] >= 0.0 and same(p)))
    attempted = size.train * len(passes)
    epochs = [s for p in passes for s in p["work_wall_s"]]
    report = {"train_nll": nll, "params_digest": params, "train_chars": chars,
              "train_chars_per_s": chars / statistics.median(epochs), "passes": len(passes)}
    # results must not depend on the worker count: one more pass with the other count
    other = 2 if workers == 1 else 1
    check = one_pass(dataclasses.replace(config, workers=other), None, None)
    attempted += size.train
    report[f"train_nll_workers{other}"] = check["nll"]
    if not same(check):
        failed += size.train
    return Outcome([s for p in passes for s in p["work_s"]], epochs,
                   [p["setup_s"] for p in passes], [p["setup_wall_s"] for p in passes],
                   attempted, failed, report, len(passes), sum(p["phase_s"] for p in passes))


# ----------------------------------------------------------------- tagging

def make_checkpoint(lx, gen, size: Sizes, seed: int, path: str) -> None:
    """A reference-size checkpoint over the seed's lexicon, trained one epoch.

    Its training set holds every alphabet and entity character, so the
    checkpoint's character table knows every character the tagging
    sentences use.
    """
    import numpy as np

    charset = sorted(set(gen.alphabet) | {c for e, _ in gen.entities for c in e})
    outside = gen.scheme.index_of("O")
    first = lx.Sentence(tuple(charset), (outside,) * len(charset), "charset")
    data = lx.Dataset([first] + gen.dataset("ckpt", 1, 20, 20).sentences, "train",
                      gen.scheme)
    lexicon = lx.build_lexicon(gen.words, None, dim=size.d_w,
                               rng=np.random.default_rng(seed))
    config = lx.TrainConfig(epochs=1, seed=seed, d_c=size.d_c,
                            bigru_total=size.bigru_total, d_w=size.d_w)
    lx.train(data, data, lexicon, config).best.save(path)


def tag_workload(lx, size: Sizes, args, tracer) -> Outcome:
    import numpy as np
    from workload import Generator

    ref = Reference()
    gen = Generator(args.seed, size.lexicon)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"tag-{args.seed}-{os.getpid()}.ckpt"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--make-checkpoint", str(path),
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    sentences = gen.dataset("tag", size.tag, *size.tag_len, tagged=False).sentences
    subprocess.run(cmd, check=True, timeout=170)

    def set_up():
        """Load the checkpoint and rebuild the trie, as `lexner tag` does on start."""
        ckpt = lx.Checkpoint.load(path)
        lexicon = lx.build_lexicon(ckpt.words, None, dim=ckpt.config.d_w,
                                   rng=np.random.default_rng(ckpt.config.seed))
        if lexicon.words != ckpt.words:
            raise RuntimeError("checkpoint word list does not round-trip")
        legal = ckpt.scheme().legal_mask() if ckpt.config.decode_mask else None
        mcfg, mode = ckpt.model_config(), ckpt.config.knowledge_mode

        def tag(sentence):
            item = lx.prepare_sentence(sentence, lexicon, ckpt.char_vocab, mode)
            return lx.decode_sentence(ckpt.store, item, mcfg, legal)
        return tag, ckpt.scheme().size

    # One set-up per pass, so set-ups sample the host's speed across the run as
    # the work does; each pass frees its set-up before the next one starts.
    def one_pass():
        blocks = ref.blocks(REF_AROUND)
        tracer.phase = "setup"
        t0 = time.perf_counter()
        tag, num_tags = set_up()
        setup_wall = time.perf_counter() - t0
        tracer.phase = None
        blocks += ref.blocks(REF_AROUND)
        latency, sentence_blocks, tags = [], [], []
        for s in sentences:
            sentence_blocks.append(ref.block())
            tracer.phase = "phase"
            a = time.perf_counter()
            tags.append(tag(s))
            latency.append(time.perf_counter() - a)
            tracer.phase = None
        wall = sum(latency)
        return {"wall": wall, "ref_s": wall * ref.scale(sentence_blocks),
                "setup_wall": setup_wall, "setup_s": setup_wall * ref.scale(blocks),
                "latency": latency, "tags": tags, "num_tags": num_tags}

    try:
        passes = timed_passes(args.seconds, one_pass)
        # decoding is deterministic: after a fresh set-up the same sentences tag the same
        tag, _ = set_up()
        recheck = [tag(s) for s in sentences[:VERIFY_SENTENCES]]
    finally:
        path.unlink(missing_ok=True)
    first = passes[0]["tags"]
    failed = 0
    for p in passes:
        for s, t, want in zip(sentences, p["tags"], first):
            ok = len(t) == len(s) and all(0 <= k < p["num_tags"] for k in t)
            failed += not (ok and list(t) == list(want))
    failed += sum(list(t) != list(want) for t, want in zip(recheck, first))
    attempted = len(passes) * len(sentences) + len(recheck)

    latency_ms = sorted(1e3 * x for p in passes for x in p["latency"])
    n = len(latency_ms)
    tail = max(n - 11, 0)   # the highest sample with ten samples beyond it
    chars = sum(len(s) for s in sentences)
    report = {
        "tag_chars_per_s": chars / statistics.median(p["wall"] for p in passes),
        "tag_sentence_ms_p50": statistics.median(latency_ms),
        "tag_sentence_ms_tail": latency_ms[tail],
        "tail_percentile": 100.0 * (tail + 1) / n, "latency_samples": n,
        "tag_chars": chars,
        "digest": hashlib.sha256(json.dumps([list(map(int, t)) for t in first])
                                 .encode()).hexdigest()[:16],
        "passes": len(passes),
    }
    return Outcome([p["ref_s"] for p in passes], [p["wall"] for p in passes],
                   [p["setup_s"] for p in passes], [p["setup_wall"] for p in passes],
                   attempted, failed, report, len(passes), sum(p["wall"] for p in passes))


# ------------------------------------------------------------ gradient audit

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import lexner; print(time.perf_counter() - t)")


def gradcheck_workload(lx, size: Sizes, args, tracer) -> Outcome:
    import numpy as np

    # the audit's inputs are C3's own seeds; the benchmark seed only orders them
    seeds = [int(s) for s in np.random.default_rng(args.seed).permutation(size.c3_seeds)]
    ref = Reference()
    # set-up of `lexner gradcheck` is importing the package, timed in fresh processes
    setup_wall_s, setup_s = [], []
    blocks = ref.blocks(REF_AROUND)
    for _ in range(size.setups):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                              capture_output=True, text=True, timeout=170)
        setup_wall_s.append(float(done.stdout.strip()))
        after = ref.blocks(REF_AROUND)
        setup_s.append(setup_wall_s[-1] * ref.scale(blocks + after))
        blocks = after

    def one_pass():
        blocks = ref.blocks(REF_AROUND)
        tracer.phase = "phase"
        t0 = time.perf_counter()
        errors = [lx.end_to_end_grad_check(s, **C3_SHAPES) for s in seeds]
        wall = time.perf_counter() - t0
        tracer.phase = None
        blocks += ref.blocks(REF_AROUND)
        return {"wall": wall, "ref_s": wall * ref.scale(blocks), "errors": errors}

    passes = timed_passes(args.seconds, one_pass)
    errors = [e for p in passes for e in p["errors"]]
    failed = sum(not e < MAX_REL_ERR for e in errors)
    report = {"gradcheck_s": statistics.median(p["wall"] for p in passes),
              "c3_seeds": seeds, "max_rel_error": max(errors), "passes": len(passes)}
    return Outcome([p["ref_s"] for p in passes], [p["wall"] for p in passes], setup_s,
                   setup_wall_s, len(errors), failed, report, len(passes),
                   sum(p["wall"] for p in passes))


# train_lex50k_workers2 and gradcheck_c3 are runnable but not listed in
# BENCHMARK.json: on a shared 2-CPU machine their wall-time spread over ten
# seeds (up to 68% and 33%) was wider than any bound the benchmark may set,
# and four workloads at the run length the gated two need would not fit in
# the time all runs may take.
WORKLOADS = {
    "train_lex50k": lambda *a: train_workload(*a, workers=1),
    "train_lex50k_workers2": lambda *a: train_workload(*a, workers=2),
    "tag_lex50k": tag_workload,
    "gradcheck_c3": gradcheck_workload,
}


# ------------------------------------------------------------- environment

def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def environment(size: Sizes, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MALLOC_ARENA_MAX": os.environ.get("MALLOC_ARENA_MAX"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "shapes": dataclasses.asdict(size),
    }


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--make-checkpoint", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lx = import_lexner()
    size = SMOKE if args.smoke else Sizes()
    if args.make_checkpoint:
        from workload import Generator
        make_checkpoint(lx, Generator(args.seed, size.lexicon), size, args.seed,
                        args.make_checkpoint)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        tracer = SimpleNamespace(phase=None)

    print(json.dumps({"env": environment(size, args)}), flush=True)
    out = WORKLOADS[args.workload](lx, size, args, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = dict(out.report, work_wall_s=out.work_wall_s, setup_wall_s=out.setup_wall_s,
                  work_s=out.work_s, setup_s=out.setup_s, ref_block_s=REF_BLOCK_S)
    if args.trace:
        values = summarize(tracer, out.phase_s, out.n_setups or out.passes, out.passes,
                           threading.main_thread().ident)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}.jsonl.gz"
        tracer.write(trace_path)
        report.update(trace_file=str(trace_path.relative_to(ROOT)),
                      absent_layers=tracer.absent, spans=len(tracer.spans))
        units = PER_LAYER
    else:
        values = {"work_s": statistics.median(out.work_s),
                  "setup_s": statistics.median(out.setup_s), "peak_rss_mb": peak_mb}
        units = END_TO_END
    print(json.dumps({"report": report}), flush=True)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    # before numpy loads: one BLAS thread here and in every child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One malloc arena for all threads. With one arena per worker thread the
    # peak RSS of workers=2 varied by 12% from run to run, depending on which
    # arena each freed gradient buffer landed in.
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt") and libc.mallopt(M_ARENA_MAX, MALLOC_ARENAS) == 1:
        os.environ["MALLOC_ARENA_MAX"] = str(MALLOC_ARENAS)
    sys.exit(main())
