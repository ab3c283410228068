"""Workloads on the tensor engine: ``engine-small`` and ``engine-large``.

``engine-small`` runs DSL statements on operands of a few dozen entries, so
per-call Python work (parsing, index alignment, building ``Tensor`` values)
dominates and the numeric kernels are negligible.  ``engine-large`` calls the
same modules directly on operands of megabytes, so the batched kernels and
the fold/expand copies dominate and per-call overhead is noise.

Every result is compared with a reference computed from ``np.einsum``,
``np.matmul`` or ``np.linalg`` on the raw arrays, never through the engine.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

import rtensor
from rtensor import dsl, ewise, lattice

from workload import Op, Workload

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "scripts" / "golden.rts"

_NAMES = "ijklmn"  # DSL index names, reused as einsum letters; x, y, z are matrix axes


def _subs(ix) -> str:
    return ",".join(n if v else "~" + n for n, v in ix)


def _aligned(arr: np.ndarray, ix, order) -> np.ndarray:
    """``arr`` (matrix axes, then axes named by ``ix``) permuted to ``order``,
    with size-1 axes for names it lacks."""
    names = [n for n, _ in ix]
    perm = [0, 1] + [2 + names.index(n) for n in order if n in names]
    out = np.transpose(arr, perm)
    shape = list(out.shape[:2])
    k = 2
    for n in order:
        if n in names:
            shape.append(out.shape[k])
            k += 1
        else:
            shape.append(1)
    return out.reshape(shape)


def _pages_last_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` per page; matrices lead, pages trail."""
    x = np.linalg.solve(np.moveaxis(a, (0, 1), (-2, -1)), np.moveaxis(b, (0, 1), (-2, -1)))
    return np.moveaxis(x, (-2, -1), (0, 1))


def _median_call(fn, reps: int, inner: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


# -- engine-small ---------------------------------------------------------------


class _Gen:
    """Seeded generator of DSL statements with their reference results.

    Each statement binds fresh operands in the environment and yields
    ``(text, reference_fn)``; ``reference_fn()`` returns the expected entries
    and the expected ``(name, variant)`` index list of the result.
    """

    def __init__(self, rng: np.random.Generator, env: dsl.Environment):
        self.rng = rng
        self.env = env
        self.count = 0

    def operand(self, mat, ix, dims) -> tuple[str, np.ndarray]:
        arr = self.rng.uniform(0.5, 1.5, size=tuple(mat) + tuple(dims[n] for n, _ in ix))
        name = f"T{self.count}"
        self.count += 1
        self.env.tensors[name] = rtensor.from_array(arr)[0]
        return name, arr

    def pick(self, k):
        return [str(n) for n in self.rng.permutation(list(_NAMES))[:k]]

    def shuffled(self, items):
        return [items[k] for k in self.rng.permutation(len(items))]

    def product(self, kind: str):
        rng = self.rng
        while True:
            n_inner = {"inner": int(rng.integers(1, 3)), "mixed": 1}.get(kind, 0)
            n_page = {"page": int(rng.integers(1, 3)), "mixed": 1}.get(kind, 0)
            n_lo, n_ro = (int(v) for v in rng.integers(0, 3, size=2))
            da, db = n_inner + n_page + n_lo, n_inner + n_page + n_ro
            if not (1 <= da <= 3 and 1 <= db <= 3):
                continue
            names = self.pick(n_inner + n_page + n_lo + n_ro)
            inner, pages = names[:n_inner], names[n_inner:n_inner + n_page]
            lo, ro = names[n_inner + n_page:n_inner + n_page + n_lo], names[n_inner + n_page + n_lo:]
            dims = {n: int(rng.integers(2, 5)) for n in names}
            if kind == "scale":  # 1x1 pages times matrix pages: the expansion path
                a_mat, b_mat = (1, 1), tuple(int(v) for v in rng.integers(2, 4, size=2))
            else:
                r, m, c = (int(v) for v in rng.integers(1, 4, size=3))
                a_mat, b_mat = (r, m), (m, c)
            rows = b_mat[0] if kind == "scale" else a_mat[0]
            if rows * b_mat[1] * math.prod(dims[n] for n in lo + ro + pages) <= _MAX_RESULT:
                break
        var = {n: bool(rng.integers(2)) for n in names}
        a_ix = self.shuffled([(n, var[n]) for n in inner + pages + lo])
        b_ix = self.shuffled([(n, not var[n]) for n in inner] + [(n, var[n]) for n in pages + ro])
        ta, a = self.operand(a_mat, a_ix, dims)
        tb, b = self.operand(b_mat, b_ix, dims)
        res_ix = (
            [h for h in a_ix if h[0] in lo]
            + [h for h in b_ix if h[0] in ro]
            + [h for h in a_ix if h[0] in pages]
        )
        a_sub = "".join(n for n, _ in a_ix)
        b_sub = "".join(n for n, _ in b_ix)
        r_sub = "".join(n for n, _ in res_ix)

        def reference():
            if kind == "scale":
                ref = np.einsum(f"{a_sub},xz{b_sub}->xz{r_sub}", a[0, 0], b)
            else:
                ref = np.einsum(f"xy{a_sub},yz{b_sub}->xz{r_sub}", a, b)
            return ref, res_ix

        return f"{ta}({_subs(a_ix)})*{tb}({_subs(b_ix)})", reference

    def division(self, left: bool):
        rng = self.rng
        pages = self.pick(int(rng.integers(1, 3)))
        dims = {n: int(rng.integers(2, 5)) for n in pages}
        var = {n: bool(rng.integers(2)) for n in pages}
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        den_ix = self.shuffled([(p, not var[p]) for p in pages])
        num_ix = self.shuffled([(p, var[p]) for p in pages])
        td, d = self.operand((n, n), den_ix, dims)
        d += n * np.eye(n).reshape((n, n) + (1,) * len(pages))  # well conditioned
        tn, b = self.operand((n, m) if left else (m, n), num_ix, dims)
        order = [p for p, _ in (den_ix if left else num_ix)]
        res_ix = [(p, var[p]) for p in order]

        def reference():
            den = _aligned(d, den_ix, order)
            num = _aligned(b, num_ix, order)
            if left:
                return _pages_last_solve(den, num), res_ix
            x = _pages_last_solve(np.swapaxes(den, 0, 1), np.swapaxes(num, 0, 1))
            return np.swapaxes(x, 0, 1), res_ix

        if left:
            return f"{td}({_subs(den_ix)})\\{tn}({_subs(num_ix)})", reference
        return f"{tn}({_subs(num_ix)})/{td}({_subs(den_ix)})", reference

    def entrywise(self, op: str):
        rng = self.rng
        while True:
            n_sh, n_a, n_b = int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2))
            if not (1 <= n_sh + n_a <= 3 and 1 <= n_sh + n_b <= 3):
                continue
            names = self.pick(n_sh + n_a + n_b)
            dims = {n: int(rng.integers(2, 5)) for n in names}
            mat = tuple(int(v) for v in rng.integers(1, 4, size=2))
            if math.prod(mat) * math.prod(dims.values()) <= _MAX_RESULT:
                break
        var = {n: bool(rng.integers(2)) for n in names}
        shared = names[:n_sh]
        a_ix = self.shuffled([(n, var[n]) for n in shared + names[n_sh:n_sh + n_a]])
        b_ix = self.shuffled([(n, var[n]) for n in shared + names[n_sh + n_a:]])
        mode = int(rng.integers(3))  # both full, left 1x1, right 1x1
        ta, a = self.operand((1, 1) if mode == 1 else mat, a_ix, dims)
        tb, b = self.operand((1, 1) if mode == 2 else mat, b_ix, dims)
        union = [n for n, _ in a_ix] + [n for n, _ in b_ix if n not in dict(a_ix)]
        res_ix = [(n, var[n]) for n in union]
        fn = {"+": np.add, "-": np.subtract, ".*": np.multiply, "./": np.divide, "<": np.less}[op]

        def reference():
            return fn(_aligned(a, a_ix, union), _aligned(b, b_ix, union)), res_ix

        return f"{ta}({_subs(a_ix)}){op}{tb}({_subs(b_ix)})", reference

    def cat(self):
        rng = self.rng
        names = self.pick(int(rng.integers(1, 4)))
        var = {n: bool(rng.integers(2)) for n in names}
        along = names[int(rng.integers(len(names)))]
        dims = {n: int(rng.integers(2, 5)) for n in names}
        mat = tuple(int(v) for v in rng.integers(1, 4, size=2))
        a_ix = self.shuffled([(n, var[n]) for n in names])
        b_ix = self.shuffled([(n, var[n]) for n in names])
        ta, a = self.operand(mat, a_ix, dims)
        dims_b = dict(dims, **{along: int(rng.integers(2, 5))})
        tb, b = self.operand(mat, b_ix, dims_b)
        order = [n for n, _ in a_ix]

        def reference():
            ref = np.concatenate([a, _aligned(b, b_ix, order)], axis=2 + order.index(along))
            return ref, a_ix

        return f"cat({along}, {ta}({_subs(a_ix)}), {tb}({_subs(b_ix)}))", reference

    def page_fn(self, fn: str):
        rng = self.rng
        names = self.pick(int(rng.integers(1, 4)))
        ix = [(n, bool(rng.integers(2))) for n in names]
        dims = {n: int(rng.integers(2, 5)) for n in names}
        n = int(rng.integers(2, 5))
        mat = (n, n) if fn == "trace" else (n, int(rng.integers(1, 5)))
        t, a = self.operand(mat, ix, dims)

        def reference():
            if fn == "trace":
                return np.trace(a, axis1=0, axis2=1)[None, None], ix
            return np.moveaxis(np.diagonal(a, axis1=0, axis2=1), -1, 0)[:, None], ix

        return f"{fn}({t}({_subs(ix)}))", reference

    def largest(self):
        """A fixed-shape outer product five times the size of any generated
        result, so the cycle's memory peak does not depend on the draw."""
        ix_a, ix_b = [("i", True), ("j", True)], [("k", True), ("l", True)]
        dims = {n: 5 for n in "ijkl"}
        ta, a = self.operand((3, 3), ix_a, dims)
        tb, b = self.operand((3, 3), ix_b, dims)

        def reference():
            return np.einsum("xyij,yzkl->xzijkl", a, b), ix_a + ix_b

        return f"{ta}(i,j)*{tb}(k,l)", reference

    def small_product(self):
        """ROADMAP's small product, 2x2x3x4 times 2x2x4x3, inner on one index."""
        ta, a = self.operand((2, 2), [("i", True), ("j", False)], {"i": 3, "j": 4})
        tb, b = self.operand((2, 2), [("j", True), ("k", True)], {"j": 4, "k": 3})

        def reference():
            return np.einsum("xyij,yzjk->xzik", a, b), [("i", True), ("k", True)]

        return f"{ta}(i,~j)*{tb}(j,k)", reference


# statements of each kind per cycle: a fixed mix, so seeds change values and
# shapes but not the proportions
_SMALL_MIX = {
    "inner": 24, "page": 24, "outer": 16, "mixed": 16, "scale": 10,
    "left": 16, "right": 14,
    "+": 12, "-": 10, ".*": 10, "./": 10, "<": 8,
    "cat": 12, "trace": 8, "diag": 6, "small": 4, "largest": 1,
}
_MAX_RESULT = 1024  # entries of a generated result; "largest" has 5625


def _is_true(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return value.entries.size > 0 and bool(np.all(value.entries != 0))


class EngineSmall(Workload):
    name = "engine-small"
    tail_percentile = 95.0  # p99 spread twice as much between runs (0.10 vs 0.05)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.golden = [
            line.split("#", 1)[0].strip() for line in GOLDEN.read_text(encoding="utf-8").splitlines()
        ]
        self.golden = [s for s in self.golden if s]
        self.env = dsl.Environment.with_seed(seed)
        self.genv = None
        gen = _Gen(rng, self.env)
        build = {
            "left": lambda: gen.division(True),
            "right": lambda: gen.division(False),
            "cat": gen.cat,
            "trace": lambda: gen.page_fn("trace"),
            "diag": lambda: gen.page_fn("diag"),
            "small": gen.small_product,
            "largest": gen.largest,
        }
        for kind in ("inner", "page", "outer", "mixed", "scale"):
            build[kind] = lambda kind=kind: gen.product(kind)
        for op in ("+", "-", ".*", "./", "<"):
            build[op] = lambda op=op: gen.entrywise(op)
        kinds = [k for k, n in _SMALL_MIX.items() for _ in range(1 if tiny else n)]
        self.ops = [self._golden_op(text) for text in self.golden]
        for k in rng.permutation(len(kinds)):
            self.ops.append(self._statement_op(kinds[k], *build[kinds[k]]()))
        # direct calls for the engine-over-raw-kernel ratios
        i, j, k, p = rtensor.fresh_many(4)
        s1, s2 = rng.uniform(size=(2, 2, 3, 4)), rng.uniform(size=(2, 2, 4, 3))
        self._small = (rtensor.with_indices(s1, [i, ~j]), rtensor.with_indices(s2, [j, k]))
        # the folds the engine makes: rows with the outer index, columns with the inner one
        self._small_raw = (
            np.ascontiguousarray(s1.transpose(0, 2, 1, 3).reshape(1, 6, 8)),
            np.ascontiguousarray(s2.transpose(0, 2, 1, 3).reshape(1, 8, 6)),
        )
        a = rng.uniform(size=(4, 4, 8)) + 4 * np.eye(4)[:, :, None]
        b = rng.uniform(size=(4, 2, 8))
        self._solve = (rtensor.with_indices(a, [~p]), rtensor.with_indices(b, [p]))
        self._solve_raw = (np.ascontiguousarray(a.transpose(2, 0, 1)), np.ascontiguousarray(b.transpose(2, 0, 1)))

    def begin_cycle(self):
        self.genv = dsl.Environment.with_seed(self.seed)

    def _golden_op(self, text: str) -> Op:
        def run():
            return dsl.evaluate(dsl.parse(text)[1], self.genv)

        def check(out, full):
            if text.startswith("assert"):
                return _is_true(out)
            return isinstance(out, (rtensor.Tensor, bool, np.bool_))

        return Op("golden", run, check)

    def _statement_op(self, kind: str, text: str, reference) -> Op:
        env = self.env
        cache = {}

        def run():
            return dsl.evaluate(dsl.parse(text)[1], env)

        def check(out, full):
            if "ref" not in cache:
                cache["ref"], cache["ix"] = reference()
            ref = cache["ref"]
            got_ix = [(env.index_name(h.id), h.variant) for h in out.indices]
            if got_ix != list(cache["ix"]) or out.entries.shape != ref.shape:
                return False
            if ref.dtype == np.bool_:
                return np.array_equal(out.entries, ref)
            return np.allclose(out.entries, ref, rtol=1e-10, atol=1e-12)

        return Op(kind, run, check, extra={"text": text})

    def layer_metrics(self):
        a, b = self._small
        fa, fb = self._small_raw
        d, n = self._solve
        sa, sb = self._solve_raw
        product = _median_call(lambda: lattice.product(a, b), 7, 200)
        matmul = _median_call(lambda: np.matmul(fa, fb), 7, 2000)
        solve = _median_call(lambda: lattice.solve_left(d, n), 7, 200)
        linalg = _median_call(lambda: np.linalg.solve(sa, sb), 7, 2000)
        return {
            "lattice.product_over_matmul": product / matmul,
            "lattice.solve_over_linalg": solve / linalg,
        }


# -- engine-large ---------------------------------------------------------------


def _matmul_flops(rows, inner, cols, pages, complex_):
    return 2.0 * rows * inner * cols * pages * (4 if complex_ else 1)


class EngineLarge(Workload):
    name = "engine-large"
    tail_percentile = 90.0

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        n = 8 if tiny else 100
        sizes = {
            "pages": (4, 8) if tiny else (64, 128),
            "square": 8 if tiny else 128,
            "right": 4 if tiny else 64,
            "tall": (12, 8, 4) if tiny else (160, 100, 64),
            "bcast": (12, 8) if tiny else (200, 256),
            "outer": (12, 5) if tiny else (200, 50),
        }
        p = rtensor.fresh()
        self.samples = {}  # op -> reference of the pages compared in the timed phases
        self.ops = []

        def data(*shape, complex_=False):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if complex_ else x

        for pages in sizes["pages"]:
            for complex_ in (False, True):
                x, y = data(n, n, pages, complex_=complex_), data(n, n, pages, complex_=complex_)
                X, Y = rtensor.with_indices(x, [p]), rtensor.with_indices(y, [p])
                self._paged(
                    "product-complex" if complex_ else "product",
                    lambda X=X, Y=Y: lattice.product(X, Y),
                    lambda sel, x=x, y=y: _matmul_pages(x[..., sel], y[..., sel]),
                    rng, pages, _matmul_flops(n, n, n, pages, complex_), x.nbytes,
                    raw=(x, y),
                )
        pages = sizes["square"]
        a = data(n, n, pages) + n * np.eye(n)[:, :, None]
        b = data(n, n, pages)
        A, B = rtensor.with_indices(a, [~p]), rtensor.with_indices(b, [p])
        self._paged(
            "solve-left", lambda: lattice.solve_left(A, B),
            lambda sel: _pages_last_solve(a[..., sel], b[..., sel]),
            rng, pages, pages * (2 / 3 * n**3 + 2 * n**3), a.nbytes,
            raw=(a, b),
        )
        pages = sizes["right"]
        a2 = data(n, n, pages) + n * np.eye(n)[:, :, None]
        b2 = data(n, n, pages)
        A2, B2 = rtensor.with_indices(a2, [~p]), rtensor.with_indices(b2, [p])
        self._paged(
            "solve-right", lambda: lattice.solve_right(B2, A2),
            lambda sel: np.swapaxes(
                _pages_last_solve(np.swapaxes(a2[..., sel], 0, 1), np.swapaxes(b2[..., sel], 0, 1)), 0, 1
            ),
            rng, pages, pages * (2 / 3 * n**3 + 2 * n**3), a2.nbytes,
        )
        m, k, n_tall = sizes["tall"]
        a3, b3 = data(m, k, n_tall), data(m, k, n_tall)
        A3, B3 = rtensor.with_indices(a3, [~p]), rtensor.with_indices(b3, [p])
        # Householder QR with explicit Q, Q^H B, then an LU solve with R
        qr_flops = 4 * m * k * k - 4 / 3 * k**3 + 2 * m * k * k + 2 / 3 * k**3 + 2 * k**3
        self._paged(
            "solve-tall", lambda: lattice.solve_left(A3, B3),
            lambda sel: np.stack(
                [np.linalg.lstsq(a3[..., q], b3[..., q], rcond=None)[0] for q in np.arange(n_tall)[sel]],
                axis=-1,
            ),
            rng, n_tall, n_tall * qr_flops, a3.nbytes,
        )
        nb, pages = sizes["bcast"]
        x4, y4 = data(nb, nb, 1), data(nb, nb, pages)
        X4, Y4 = rtensor.with_indices(x4, [p]), rtensor.with_indices(y4, [p])
        self._paged(
            "product-bcast", lambda: lattice.product(X4, Y4),
            lambda sel: _matmul_pages(np.broadcast_to(x4, y4.shape)[..., sel], y4[..., sel]),
            rng, pages, _matmul_flops(nb, nb, nb, pages, False), y4.nbytes,
            raw=(x4, y4),
        )
        no, nk = sizes["outer"]
        i, j, kk = rtensor.fresh_many(3)
        u, v = data(1, 1, no, nk), data(1, 1, no, nk)
        U, V = rtensor.with_indices(u, [i, kk]), rtensor.with_indices(v, [j, kk])

        def outer_check(out, full):
            ref = u[:, :, :, :, None] + np.transpose(v, (0, 1, 3, 2))[:, :, None]
            return [h.id for h in out.indices] == [i.id, kk.id, j.id] and np.allclose(out.entries, ref)

        self.ops.append(Op("outer-add", lambda: ewise.ewise_binary("+", U, V), outer_check))

    def _paged(self, kind, run, reference, rng, pages, flops, nbytes, raw=None):
        """An op whose result carries one page index, last; the timed phases
        compare four sampled pages, the checking pass compares all."""
        sel = np.sort(rng.choice(pages, size=min(4, pages), replace=False))
        key = len(self.ops)
        samples = self.samples

        def check(out, full):
            if full:
                ref = reference(slice(None))
                samples[key] = ref[..., sel]
                got = out.entries
            else:
                if key not in samples:
                    samples[key] = reference(sel)
                ref = samples[key]
                got = out.entries[..., sel]
            return got.shape == ref.shape and np.allclose(got, ref, rtol=1e-8, atol=1e-10)

        self.ops.append(Op(kind, run, check, flops=flops, operand_bytes=nbytes, extra={"raw": raw}))

    def layer_metrics(self):
        engine = {"product": 0.0, "solve": 0.0}
        kernel = {"product": 0.0, "solve": 0.0}
        for op in self.ops:
            raw = op.extra.get("raw")
            if raw is None:
                continue
            fa, fb = _pages_first(raw[0]), _pages_first(raw[1])
            group = "solve" if op.kind.startswith("solve") else "product"
            engine[group] += _median_call(op.run, 3, 1)
            raw_fn = np.linalg.solve if group == "solve" else np.matmul
            kernel[group] += _median_call(lambda: raw_fn(fa, fb), 3, 1)
        return {
            "lattice.product_over_matmul": engine["product"] / kernel["product"],
            "lattice.solve_over_linalg": engine["solve"] / kernel["solve"],
        }


def _pages_first(x: np.ndarray) -> np.ndarray:
    """The (pages, rows, cols) contiguous stack the engine hands its kernels."""
    return np.ascontiguousarray(np.moveaxis(x, 2, 0))


def _matmul_pages(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.moveaxis(np.matmul(np.moveaxis(x, 2, 0), np.moveaxis(y, 2, 0)), 0, 2)
