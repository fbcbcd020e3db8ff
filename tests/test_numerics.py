import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexner
from lexner import ParamStore
from lexner.errors import FormatError, NumericError, ShapeError
from lexner.numerics import (affine, affine_backward, dropout, dropout_backward,
                             grad_check, softmax, softmax_backward)
from lexner.params import load_arrays, save_arrays


def fd(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestAffine:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(affine(x, np.eye(3), np.zeros(3)), x)

    def test_example(self):
        y = affine(np.array([1.0, 2.0]), np.eye(2), np.array([3.0, 3.0]))
        assert np.array_equal(y, [4.0, 5.0])

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3,\)"):
            affine(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = int(rng.integers(1, 4))
            din, dout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.normal(size=(rows, din)) if rng.random() < 0.5 else rng.normal(size=din)
            W = rng.normal(size=(dout, din))
            b = rng.normal(size=dout)
            up = rng.normal(size=(rows, dout) if x.ndim == 2 else dout)
            loss = lambda: float(np.sum(affine(x, W, b) * up))
            dx, dW, db = affine_backward(up, x, W)
            for arr, grad in ((x, dx), (W, dW), (b, db)):
                num = fd(loss, arr)
                assert np.max(np.abs(num - grad)) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        for c in (-3.0, 0.0, 7.5):
            assert np.allclose(softmax(np.array([c, c])), [0.5, 0.5], atol=1e-15)

    def test_exact_quarters(self):
        p = softmax(np.array([0.0, math.log(3.0)]))
        assert np.allclose(p, [0.25, 0.75], atol=1e-12)

    def test_no_overflow(self):
        p = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(p, [0.5, 0.5]) and np.all(np.isfinite(p))

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = softmax(rng.normal(scale=10, size=rng.integers(1, 9)))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=rng.integers(1, 7))
            up = rng.normal(size=v.shape)
            loss = lambda: float(np.dot(softmax(v), up))
            dv = softmax_backward(up, softmax(v))
            assert np.max(np.abs(fd(loss, v) - dv)) < 1e-6


class TestElementwise:
    def test_backwards_match_fd(self):
        # the encoder's backward pass uses y (1 - y) and 1 - y^2 in closed form
        rng = np.random.default_rng(3)
        logistic = lambda a: 0.5 * (1.0 + np.tanh(0.5 * a))
        for _ in range(20):
            x = rng.normal(size=5)
            up = rng.normal(size=5)
            for fwd, slope in ((logistic, lambda y: y * (1.0 - y)),
                               (np.tanh, lambda y: 1.0 - y * y)):
                loss = lambda: float(np.dot(fwd(x), up))
                dx = up * slope(fwd(x))
                assert np.max(np.abs(fd(loss, x) - dx)) < 1e-6

    def test_imports_and_decodes_without_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lexner.diagnostics import tiny_problem\n"
            "from lexner.model import decode_sentence\n"
            "store, inputs, mcfg = tiny_problem(0)\n"
            "print(len(decode_sentence(store, inputs[0], mcfg)) == len(inputs[0]))\n"
        )
        src = str(Path(lexner.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    def test_imports_nothing_outside_the_stdlib_but_numpy(self):
        # pyproject.toml lists numpy only, so any other import fails on a clean install
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import lexner, lexner.cli\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
        )
        src = str(Path(lexner.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == ["lexner", "numpy"]

    def test_changes_no_process_wide_memory_setting(self):
        # a library shares its process: it must not switch numpy's huge-page advice or
        # glibc's malloc tuning for every other user of it
        script = (
            "try:\n"
            "    from numpy._core.multiarray import _get_madvise_hugepage\n"
            "except ImportError:   # numpy 1.x\n"
            "    from numpy.core.multiarray import _get_madvise_hugepage\n"
            "import numpy as np\n"
            "from lexner import TrainConfig, build_lexicon, make_synthetic_corpus, train\n"
            "before = _get_madvise_hugepage()\n"
            "ds, words, _ = make_synthetic_corpus(n_sentences=6, seed=3)\n"
            "lex = build_lexicon(words, None, dim=8, rng=np.random.default_rng(0))\n"
            "train(ds, ds, lex, TrainConfig(lr=1e-2, batch_size=8, d_c=8, d_w=8,\n"
            "                               bigru_total=16, epochs=2, seed=5))\n"
            "print(before, _get_madvise_hugepage())\n"
        )
        src = Path(lexner.__file__).resolve().parent
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src.parent)})
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert before == after
        for path in src.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert "mallopt" not in text and "_set_madvise_hugepage" not in text, path.name


class TestDropout:
    def test_eval_mode_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        y, mask = dropout(x, 0.1, train=False)
        assert np.array_equal(y, x) and np.all(mask == 1.0)

    def test_bad_rate(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                dropout(np.zeros(3), p, train=True, rng=np.random.default_rng(0))

    def test_inverted_scaling_expectation(self):
        # Monte-Carlo mean over 1e5 masks stays within 3 sigma of x
        rng = np.random.default_rng(4)
        x = np.array([1.0, -2.0, 0.5])
        p = 0.1
        n = 100_000
        acc = np.zeros_like(x)
        for _ in range(n):
            y, _ = dropout(x, p, train=True, rng=rng)
            acc += y
        mean = acc / n
        sigma = np.abs(x) * math.sqrt(p / ((1 - p) * n))
        assert np.all(np.abs(mean - x) <= 3 * sigma)

    def test_eval_mode_mask_is_0d_and_keeps_dtype(self):
        # no full-size ones array per call; dy * mask keeps a float32 gradient's bits and dtype
        for dtype in (np.float32, np.float64):
            x = np.arange(6, dtype=dtype).reshape(2, 3)
            dy = np.array([[-0.0, 1e-30, 3.5], [np.inf, -2.0, 7.25]], dtype=dtype)
            for p, train in ((0.3, False), (0.0, True)):
                y, mask = dropout(x, p, train=train)
                assert y is x and mask.shape == () and mask.dtype == dtype
                dx = dropout_backward(dy, mask)
                assert dx.dtype == dtype and dx.tobytes() == dy.tobytes()

    def test_backward_uses_mask(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=10)
        y, mask = dropout(x, 0.4, train=True, rng=rng)
        up = rng.normal(size=10)
        assert np.array_equal(dropout_backward(up, mask), up * mask)


class TestGradCheck:
    def _store(self, arrays):
        store = ParamStore()
        for name, arr in arrays.items():
            store.add(name, arr)
        return store

    def test_linear_function_tight(self):
        rng = np.random.default_rng(6)
        store = self._store({"W": rng.normal(size=(3, 4)), "b": rng.normal(size=3)})
        x = rng.normal(size=4)

        def f():
            y = affine(x, store.value("W"), store.value("b"))
            dx, dW, db = affine_backward(np.ones(3), x, store.value("W"))
            store["W"].grad += dW
            store["b"].grad += db
            return float(y.sum())

        assert grad_check(f, store) < 1e-7

    def test_constant_function_zero_error(self):
        store = self._store({"w": np.ones(3)})
        assert grad_check(lambda: 1.0, store) == 0.0

    def test_wrong_gradient_flagged(self):
        store = self._store({"w": np.array([0.5, -0.2])})

        def f():
            w = store.value("w")
            store["w"].grad += 2 * w + 1.0   # wrong: true grad is 2w
            return float(np.sum(w ** 2))

        assert grad_check(f, store) > 0.1

    def test_non_finite_loss_raises(self):
        store = self._store({"w": np.ones(1)})
        with pytest.raises(NumericError):
            grad_check(lambda: float("nan"), store)

    def _quadratic(self, grad_offset=0.0):
        store = self._store({"w": np.array([0.5, -0.2, 1.3])})

        def f():
            w = store.value("w")
            store["w"].grad += 2 * w + grad_offset
            return float(np.sum(w ** 2))

        def loss_only():
            return float(np.sum(store.value("w") ** 2))

        return store, f, loss_only

    def test_loss_only_same_error_as_f(self):
        store, f, loss_only = self._quadratic()
        assert grad_check(f, store, loss_only=loss_only) == grad_check(f, store)

    def test_loss_only_runs_f_once(self):
        store, f, loss_only = self._quadratic()
        calls = []

        def counted():
            calls.append(1)
            return f()

        assert grad_check(counted, store, loss_only=loss_only) < 1e-7
        assert len(calls) == 1

    def test_wrong_gradient_flagged_with_loss_only(self):
        store, f, loss_only = self._quadratic(grad_offset=1.0)
        assert grad_check(f, store, loss_only=loss_only) > 0.1

    def test_non_finite_loss_only_raises(self):
        store, f, _ = self._quadratic()
        with pytest.raises(NumericError):
            grad_check(f, store, loss_only=lambda: float("inf"))

    def test_non_finite_gradient_raises(self):
        store, f, loss_only = self._quadratic(grad_offset=np.array([0.0, np.nan, 0.0]))
        with pytest.raises(NumericError, match="gradient of w"):
            grad_check(f, store, loss_only=loss_only)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("a", np.zeros(2))

    def test_container_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        store = ParamStore()
        store.add("alpha", rng.normal(size=(3, 4)))
        store.add("beta", rng.normal(size=7))
        store["alpha"].m[...] = rng.normal(size=(3, 4))
        store["alpha"].v[...] = rng.normal(size=(3, 4)) ** 2
        path = tmp_path / "params.bin"
        store.save(path, {"note": "检查", "k": 3})
        loaded, meta = ParamStore.load(path)
        assert meta == {"note": "检查", "k": 3}
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].value.tobytes() == store[name].value.tobytes()
            assert loaded[name].m.tobytes() == store[name].m.tobytes()
            assert loaded[name].v.tobytes() == store[name].v.tobytes()

    def test_identical_saves_identical_bytes(self, tmp_path):
        store = ParamStore()
        store.add("w", np.arange(6.0).reshape(2, 3))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        store.save(a, {"x": 1})
        store.save(b, {"x": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_save_onto_a_loaded_file_leaves_its_moments(self, tmp_path):
        # the loaded moments map the file: a save must replace it, never rewrite it in place
        rng = np.random.default_rng(8)
        path = tmp_path / "p.bin"
        first = ParamStore()
        first.add("w", rng.normal(size=(64, 40)))
        first["w"].m[...], first["w"].v[...] = rng.normal(size=(2, 64, 40))
        first.save(path)
        loaded, _ = ParamStore.load(path)
        assert not loaded["w"].m.flags.owndata   # a view of the mapping
        second = ParamStore()
        second.add("w", np.zeros((3, 2)))
        second.save(path)
        assert not (tmp_path / "p.bin.tmp").exists()
        assert loaded["w"].m.tobytes() == first["w"].m.tobytes()
        assert loaded["w"].v.tobytes() == first["w"].v.tobytes()
        assert ParamStore.load(path)[0]["w"].value.shape == (3, 2)

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "p.bin"
        save_arrays(path, {"x": np.arange(3.0)})
        before = path.read_bytes()
        with pytest.raises(FormatError, match="dtype"):
            save_arrays(path, {"y": np.arange(2.0), "z": np.arange(2)})
        assert path.read_bytes() == before and not (tmp_path / "p.bin.tmp").exists()

    def test_loaded_moments_are_private_copies_on_write(self, tmp_path):
        store = ParamStore()
        store.add("w", np.ones((4, 3)))
        store["w"].m[...] = 0.5
        path = tmp_path / "p.bin"
        store.save(path)
        before = path.read_bytes()
        loaded, _ = ParamStore.load(path)
        loaded["w"].m[1] = -1.0
        loaded["w"].v += 2.0
        assert path.read_bytes() == before
        again, _ = ParamStore.load(path)
        assert again["w"].m.tobytes() == store["w"].m.tobytes()
        assert loaded["w"].m[1, 0] == -1.0 and loaded["w"].v[0, 0] == 2.0

    def test_file_shrunk_before_mapping_is_truncated(self, tmp_path, monkeypatch):
        # the size read at open still covers a moment the file no longer holds
        store = ParamStore()
        store.add("w", np.arange(12.0).reshape(3, 4))
        path = tmp_path / "p.bin"
        store.save(path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(_entry_spans(path.read_bytes())["w!m"][1] - 8)
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], size, *real_fstat(fd)[7:])))
        with pytest.raises(FormatError, match="truncated container"):
            ParamStore.load(path)

    def test_file_shrunk_inside_a_header_is_truncated(self, tmp_path, monkeypatch):
        # the size read at open still covers the header the file was cut inside
        store = ParamStore()
        store.add("a", np.arange(3.0))
        store.add("w", np.arange(12.0).reshape(3, 4))
        path = tmp_path / "p.bin"
        store.save(path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(_entry_spans(path.read_bytes())["a!m"][0] + 9)   # inside its shape
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], size, *real_fstat(fd)[7:])))
        with pytest.raises(FormatError, match="truncated container"):
            ParamStore.load(path)

    def test_0d_parameter_keeps_its_shape(self, tmp_path):
        store = ParamStore()
        assert store.add("s", np.array(2.5)).shape == ()
        assert store["s"].m.shape == store["s"].grad.shape == ()
        store.save(tmp_path / "p.bin")
        loaded, _ = ParamStore.load(tmp_path / "p.bin")
        assert loaded.value("s").shape == loaded["s"].m.shape == ()
        assert loaded.value("s") == 2.5

    def test_load_maps_the_moments_instead_of_reading_them(self):
        # One 2048 x 1024 float64 table: 16 MB of values and 32 MB of moments. A process keeps
        # the ru_maxrss of the one it was started from across exec, here the test runner's,
        # so the load runs in a fork of the child, whose ru_maxrss starts at its own RSS.
        script = (
            "import os, resource, sys\n"
            "from lexner import ParamStore\n"
            "if os.fork() == 0:\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    store, _ = ParamStore.load(sys.argv[1])\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    print((after - before) * 1024 if store['w'].m.shape == (2048, 1024) else -1)\n"
            "    sys.stdout.flush()\n"
            "    os._exit(0)\n"
            "os.wait()\n"
        )
        store = ParamStore()
        store.add("w", np.full((2048, 1024), 0.25))
        store["w"].m[...], store["w"].v[...] = 0.5, 0.75
        values, moments = store["w"].value.nbytes, 2 * store["w"].m.nbytes
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "big.bin"
            store.save(path)
            del store
            src = str(Path(lexner.__file__).resolve().parents[1])
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}   # no thread at fork
            done = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                                  text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert 0 <= int(done.stdout) < values + moments // 4

    def test_a_tables_gradient_and_moments_hold_only_the_pages_of_its_live_rows(self):
        # A 50,000 x 50 float64 table (19 MB of values) gets gradients at 300 scattered rows,
        # then one Adam step and a copy: five buffers filled by rows (the gradient, both
        # moments, and the copy's two moments) and the copy's values. Buffers from np.zeros
        # would hold 2 MiB around each written row where numpy asks for huge pages (about
        # 110 MB in all under Linux with transparent huge pages set to `madvise`); where it
        # asks for none, both ways stay under the bound. The work runs in a fork of the
        # child, as above, so ru_maxrss starts at the child's own RSS.
        script = (
            "import os, resource, sys\n"
            "import numpy as np\n"
            "from lexner import ParamStore, adam_step\n"
            "from lexner.model import _add_rows\n"
            "if os.fork() == 0:\n"
            "    value = np.full((50_000, 50), 0.25)\n"
            "    rows = np.arange(300) * 166 + 7\n"
            "    d = np.random.default_rng(0).normal(size=(300, 50))\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    store = ParamStore()\n"
            "    store.add('w', value, table=True)\n"
            "    _add_rows(store, 'w', rows, d)\n"
            "    updated = adam_step(store, 0.01)\n"
            "    copied = store.copy()\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    same = np.array_equal(copied['w'].m, store['w'].m) and updated == d.size\n"
            "    print((after - before) * 1024 if same else -1)\n"
            "    sys.stdout.flush()\n"
            "    os._exit(0)\n"
            "os.wait()\n"
        )
        src = str(Path(lexner.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}   # no thread at fork
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert 0 <= int(done.stdout) < 2 * 50_000 * 50 * 8   # the copy's values are one of these

    def test_a_resumed_tables_buffers_hold_only_the_pages_of_its_live_rows(self):
        # The steps of the test above on a loaded 50,000 x 50 table with 300 live rows, whose
        # Adam moments are mapped from the file and which has no live mask: the copy that
        # training resumes from, a gradient at the same rows, one Adam step, a copy. Reading
        # the mask makes the mapped moments resident (two tables' worth) and both copies take
        # the values (two more). Copying the moments whole and a gradient from np.zeros took
        # about 136 MB on Linux, where numpy asks for huge pages.
        script = (
            "import os, resource, sys\n"
            "import numpy as np\n"
            "from lexner import ParamStore, adam_step\n"
            "from lexner.model import _add_rows\n"
            "from lexner.trainer import _resumable\n"
            "rows = np.arange(300) * 166 + 7\n"
            "d = np.random.default_rng(0).normal(size=(300, 50))\n"
            "store = ParamStore()\n"
            "store.add('word_emb', np.full((50_000, 50), 0.25), table=True)\n"
            "_add_rows(store, 'word_emb', rows, d)\n"
            "adam_step(store, 0.01)\n"
            "store.save(sys.argv[1])\n"
            "del store\n"
            "if os.fork() == 0:\n"
            "    loaded, _ = ParamStore.load(sys.argv[1])\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    store = _resumable(loaded)\n"
            "    _add_rows(store, 'word_emb', rows, d)\n"
            "    updated = adam_step(store, 0.01, t=2)\n"
            "    copied = store.copy()\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    same = np.array_equal(copied['word_emb'].m, store['word_emb'].m) and updated == d.size\n"
            "    print((after - before) * 1024 if same else -1)\n"
            "    sys.stdout.flush()\n"
            "    os._exit(0)\n"
            "os.wait()\n"
        )
        src = str(Path(lexner.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}   # no thread at fork
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run([sys.executable, "-c", script, str(Path(tmp) / "t.bin")],
                                  capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert 0 <= int(done.stdout) < 5 * 50_000 * 50 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_arrays(path)

    def test_oversized_shape_rejected(self, tmp_path):
        # (2**32 - 1)**4 and 2**64 elements: a product in fixed-width
        # integers wraps and would read them as small or empty arrays
        for dims in ((2 ** 32 - 1,) * 4, (2 ** 31, 2 ** 31, 4)):
            path = tmp_path / "huge.bin"
            path.write_bytes(
                b"LXC1" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 1) + b"x"
                + struct.pack("<BB", 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
            )
            with pytest.raises(FormatError):
                load_arrays(path)

    def test_zero_sized_shape_numpy_cannot_hold_rejected(self, tmp_path):
        # no bytes to read, but (2**32 - 1)**2 elements per slice overflow numpy's size
        dims = (0, 2 ** 32 - 1, 2 ** 32 - 1)
        path = tmp_path / "empty_huge.bin"
        path.write_bytes(
            b"LXC1" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 1) + b"x"
            + struct.pack("<BB", 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
        )
        with pytest.raises(FormatError, match="shape"):
            load_arrays(path)

    def test_float32_entries(self, tmp_path):
        path = tmp_path / "f32.bin"
        arr = np.arange(5, dtype=np.float32)
        save_arrays(path, {"x": arr})
        loaded, _ = load_arrays(path)
        assert loaded["x"].dtype == np.float32
        assert np.array_equal(loaded["x"], arr)

    def test_corrupt_entry_name_rejected(self, tmp_path):
        path = tmp_path / "name.bin"
        path.write_bytes(
            b"LXC1" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 2)
            + b"\xff\xfe" + struct.pack("<BBI", 1, 1, 1) + struct.pack("<d", 0.0)
        )
        with pytest.raises(FormatError, match="entry name"):
            load_arrays(path)


def _write_bytes(data: bytes):
    """Write `data` to a fresh temporary file and return its path."""
    fd_, name = tempfile.mkstemp(suffix=".bin")
    with os.fdopen(fd_, "wb") as fh:
        fh.write(data)
    return Path(name)


def _container_bytes(arrays, meta) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        save_arrays(path, arrays, meta)
        return path.read_bytes()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_metas = st.dictionaries(st.text(max_size=8), _json_values, max_size=4)
_arrays = hnp.arrays(dtype=st.sampled_from([np.dtype("<f8"), np.dtype("<f4")]),
                     shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
_entries = st.dictionaries(st.text(max_size=10), _arrays, max_size=3)


_store_entries = st.dictionaries(
    # names of 0 to 24 UTF-8 bytes shift the data offsets through every residue mod 8
    st.text(st.characters(exclude_characters="!", exclude_categories=("Cs",)), max_size=6),
    # values with moments of their dtype and shape; sides of 0 included
    hnp.arrays(dtype=st.sampled_from([np.dtype("<f8"), np.dtype("<f4")]),
               shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)).flatmap(
        lambda a: st.tuples(st.just(a), *(hnp.arrays(a.dtype, a.shape) for _ in range(2)))),
    max_size=4,
)


def _entry_spans(data: bytes) -> dict:
    """Each entry's name -> (first byte of its header, end of its data)."""
    (meta_len,) = struct.unpack_from("<I", data, 8)
    at = 12 + meta_len
    (n_entries,) = struct.unpack_from("<I", data, at)
    at += 4
    spans = {}
    for _ in range(n_entries):
        start = at
        (name_len,) = struct.unpack_from("<H", data, at)
        name = data[at + 2:at + 2 + name_len].decode("utf-8")
        code, ndim = struct.unpack_from("<BB", data, at + 2 + name_len)
        shape = struct.unpack_from(f"<{ndim}I", data, at + 4 + name_len)
        at += 4 + name_len + 4 * ndim + math.prod(shape) * (8 if code == 1 else 4)
        spans[name] = (start, at)
    return spans


class TestParamStoreLoadProperties:
    @settings(max_examples=60, deadline=None)
    @given(entries=_store_entries, cut=st.floats(0, 1, exclude_max=True))
    def test_load_reads_values_and_maps_moments_bit_exact(self, entries, cut):
        store = ParamStore()
        for name, (value, m, v) in entries.items():
            store.add(name, value)
            store[name].m[...], store[name].v[...] = m, v
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.bin"
            store.save(path, {"k": 1})
            data = path.read_bytes()
            loaded, meta = ParamStore.load(path)
            whole, _ = load_arrays(path)   # every entry read into its own buffer
        assert meta == {"k": 1} and loaded.names() == store.names()
        copied = loaded.copy()
        for name, (value, m, v) in entries.items():
            p = loaded[name]
            assert p.value.flags.aligned and p.value.flags.owndata
            for moment in (p.m, p.v):   # a view of the mapping, unless it holds no bytes
                assert moment.flags.writeable and moment.flags.owndata == (moment.size == 0)
            for got, want in ((p.value, value), (p.m, m), (p.v, v)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            q = copied[name]
            for got, suffix in ((q.value, ""), (q.m, "!m"), (q.v, "!v")):
                assert got.tobytes() == whole[name + suffix].tobytes()
        spans = _entry_spans(data)
        for name in entries:
            for moment in (name + "!m", name + "!v"):
                start, end = spans[moment]
                short = _write_bytes(data[:start + 1 + int(cut * (end - start - 1))])
                try:
                    with pytest.raises(FormatError, match="truncated"):
                        ParamStore.load(short)
                finally:
                    short.unlink()


class TestContainerProperties:
    @settings(max_examples=60, deadline=None)
    @given(arrays=_entries, meta=_metas)
    def test_round_trip_bit_exact(self, arrays, meta):
        path = _write_bytes(_container_bytes(arrays, meta))
        try:
            loaded, loaded_meta = load_arrays(path)
        finally:
            path.unlink()
        assert loaded_meta == meta
        assert list(loaded) == list(arrays)
        for name, arr in arrays.items():
            got = loaded[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(arrays=_entries, meta=_metas)
    def test_every_truncation_raises_format_error(self, arrays, meta):
        data = _container_bytes(arrays, meta)
        for cut in range(len(data)):
            path = _write_bytes(data[:cut])
            try:
                with pytest.raises(FormatError):
                    load_arrays(path)
            finally:
                path.unlink()

    @settings(max_examples=25, deadline=None)
    @given(arrays=_entries, meta=_metas, mask=st.integers(1, 255))
    def test_every_byte_flip_loads_or_raises_format_error(self, arrays, meta, mask):
        data = _container_bytes(arrays, meta)
        for at in range(len(data)):
            flipped = bytearray(data)
            flipped[at] ^= mask
            path = _write_bytes(bytes(flipped))
            try:
                load_arrays(path)
            except FormatError:
                pass
            finally:
                path.unlink()
