"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; none are calibrated at runtime.
"""

import itertools
import time

import numpy as np

from rtensor import (
    assign,
    concat,
    equal_all,
    ewise_binary,
    ewise_unary,
    fresh_many,
    page_ctranspose,
    page_diag,
    page_trace,
    page_transpose,
    product,
    solve_left,
    with_indices,
)
from rtensor.corona import (
    SceneConfig,
    TrustRegionOptions,
    fft2,
    hess_mult,
    ifft2,
    make_aberration,
    make_instance,
    optimize,
    sse,
)
from rtensor.corona.bench import benchmark
from rtensor.dsl import Environment, evaluate, parse

from oracles import dft_operator, loop_product, selector_concat


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1. algebra oracle suite ----------------------------------------------------


def test_criterion_1_product_oracle_suite():
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    cases = 0
    for da in range(4):
        for db in range(4):
            for k in range(min(da, db) + 1):
                for pattern in itertools.product(("inner", "page"), repeat=k):
                    for rep in range(9):
                        integer = rep < 6
                        shared = fresh_many(k)
                        ai = list(shared) + fresh_many(da - k)
                        bi = [
                            ~h if kind == "inner" else h
                            for h, kind in zip(shared, pattern)
                        ] + fresh_many(db - k)
                        sizes = {h.id: int(rng.integers(1, 5)) for h in ai + bi}
                        adims = tuple(sizes[h.id] for h in ai)
                        bdims = tuple(sizes[h.id] for h in bi)
                        if integer:
                            ae = rng.integers(-4, 5, (1, 1) + adims).astype(float)
                            be = rng.integers(-4, 5, (1, 1) + bdims).astype(float)
                        else:
                            ae = rng.standard_normal((1, 1) + adims)
                            be = rng.standard_normal((1, 1) + bdims)
                        got = product(with_indices(ae, ai), with_indices(be, bi))
                        want, want_idx = loop_product(ae, ai, be, bi)
                        assert [h.id for h in got.indices] == [h.id for h in want_idx]
                        want = want.reshape(got.entries.shape)
                        if integer:
                            np.testing.assert_array_equal(got.entries, want)
                        else:
                            scale = max(np.abs(want).max(), 1e-300)
                            assert np.abs(got.entries - want).max() <= 1e-12 * scale
                        cases += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        cases >= 500 and elapsed < 60.0,
        f"product vs loop oracle on {cases} cases over all variant patterns in {elapsed:.1f}s",
    )


# -- 2. golden expression suite ----------------------------------------------------


def _vec(env, name, values, index_name):
    arr = np.asarray(values, dtype=float).reshape(1, 1, -1)
    env.tensors[name] = with_indices(arr, [env.index(index_name)])
    return env.tensors[name]


def test_criterion_2_golden_expression_suite():
    rng = np.random.default_rng(77)
    failures = []

    def row(text, build, direct, oracle, comparator=None):
        env = Environment.with_seed(0)
        build(env)
        kind, node = parse(text)
        got = evaluate(node, env)
        want_direct = direct(env)
        want_oracle = oracle(env)
        try:
            if isinstance(got, bool):
                assert got == want_direct == want_oracle
            else:
                assert equal_all([got, want_direct]) or np.allclose(
                    got.entries, want_direct.entries, rtol=1e-13, atol=0
                )
                if comparator is None:
                    np.testing.assert_allclose(
                        np.asarray(got.entries, dtype=complex).reshape(
                            np.asarray(want_oracle).shape
                        ),
                        want_oracle,
                        rtol=1e-12,
                        atol=1e-13,
                    )
                else:
                    comparator(env, got, want_oracle)
        except AssertionError as exc:
            failures.append(f"{text}: {exc}")

    ints = lambda n: rng.integers(-4, 5, n).astype(float)

    # inner, entrywise, outer products of degree-one operands
    def build_abc(env):
        _vec(env, "a", [1, 2, 3, 4], "i")
        _vec(env, "b", ints(4), "i")
        _vec(env, "c", ints(4), "i")

    row(
        "a(i)*b(i)*c(~i)",
        build_abc,
        lambda env: product(
            product(env.tensors["a"], env.tensors["b"]),
            env.tensors["c"].reindex([~env.index("i")]),
        ),
        lambda env: np.sum(
            env.tensors["a"].entries.ravel()
            * env.tensors["b"].entries.ravel()
            * env.tensors["c"].entries.ravel()
        ).reshape(1, 1),
    )
    row(
        "a(i)*b(i)*c(i)",
        build_abc,
        lambda env: product(
            product(env.tensors["a"], env.tensors["b"]), env.tensors["c"]
        ),
        lambda env: (
            env.tensors["a"].entries.ravel()
            * env.tensors["b"].entries.ravel()
            * env.tensors["c"].entries.ravel()
        ).reshape(1, 1, 4),
    )

    def build_outer(env):
        _vec(env, "a", ints(2), "i")
        _vec(env, "b", ints(3), "j")
        _vec(env, "c", ints(2), "k")

    def outer_oracle(env):
        a = env.tensors["a"].entries.ravel()
        b = env.tensors["b"].entries.ravel()
        c = env.tensors["c"].entries.ravel()
        out = np.zeros((2, 3, 2))
        for x in range(2):
            for y in range(3):
                for z in range(2):
                    out[x, y, z] = a[x] * b[y] * c[z]
        return out.reshape(1, 1, 2, 3, 2)

    row(
        "a(i)*b(j)*c(k)",
        build_outer,
        lambda env: product(
            product(env.tensors["a"], env.tensors["b"]), env.tensors["c"]
        ),
        outer_oracle,
    )

    # entrywise relation and permute-and-copy on a degree-two operand
    y_data = rng.standard_normal((1, 1, 3, 3))

    def build_y(env):
        env.tensors["y"] = with_indices(y_data, [env.index("j"), env.index("i")])

    def relation_oracle(env):
        y = y_data[0, 0]
        out = np.zeros((3, 3), dtype=bool)
        for a in range(3):
            for b in range(3):
                out[a, b] = y[a, b] != y[b, a]
        return out.reshape(1, 1, 3, 3)

    row(
        "y(i,~j) ~= y(~j,i)",
        build_y,
        lambda env: ewise_binary(
            "~=",
            env.tensors["y"].reindex([env.index("i"), ~env.index("j")]),
            env.tensors["y"].reindex([~env.index("j"), env.index("i")]),
        ),
        relation_oracle,
    )
    row(
        "z(i,~j) = y(~j,i)",
        build_y,
        lambda env: assign(
            [env.index("i"), ~env.index("j")],
            env.tensors["y"].reindex([~env.index("j"), env.index("i")]),
        ),
        lambda env: y_data[0, 0].T.reshape(1, 1, 3, 3),
    )

    # left division and the mixed product that reconstructs it
    A_data = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b_data = rng.standard_normal((3, 4))

    def build_div(env):
        env.tensors["A"] = with_indices(
            A_data.reshape(1, 1, 4, 4), [env.index("l"), env.index("lp")]
        )
        env.tensors["b"] = with_indices(
            b_data.reshape(1, 1, 3, 4), [env.index("i"), env.index("lp")]
        )

    def division_check(env, got, want):
        u = assign([env.index("i"), env.index("l")], got).entries.reshape(3, 4)
        np.testing.assert_allclose(u, want, rtol=1e-10)
        residual = np.abs(u @ A_data - b_data).max()
        assert residual <= 1e-10 * np.abs(b_data).max()
        assert all(h.variant is False for h in got.indices if h.id == env.index("l").id)

    row(
        "A(l,lp)\\b(i,lp)",
        build_div,
        lambda env: solve_left(env.tensors["A"], env.tensors["b"]),
        lambda env: np.linalg.solve(A_data.T, b_data.T).T,
        comparator=division_check,
    )

    u_data = rng.standard_normal((3, 4))

    def build_mixed(env):
        build_div(env)
        env.tensors["u"] = with_indices(
            u_data.reshape(1, 1, 3, 4), [env.index("i"), ~env.index("l")]
        )

    def mixed_oracle(env):
        out = np.zeros((4, 3))
        for lp in range(4):
            for i in range(3):
                out[lp, i] = sum(A_data[l, lp] * u_data[i, l] for l in range(4))
        return out.reshape(1, 1, 4, 3)

    row(
        "A(l,lp)*u(i,~l)",
        build_mixed,
        lambda env: product(env.tensors["A"], env.tensors["u"]),
        mixed_oracle,
    )

    # outer addition through an entrywise function
    def build_logadd(env):
        _vec(env, "c", [1.0, 2.0, 3.0], "j")
        _vec(env, "x", [0.5, 1.5, 2.5, 3.5], "i")

    def logadd_oracle(env):
        out = np.zeros((3, 4))
        for j in range(3):
            for i in range(4):
                out[j, i] = np.log((j + 1.0) + (0.5 + i))
        return out.reshape(1, 1, 3, 4)

    row(
        "log(c(j)+x(i))",
        build_logadd,
        lambda env: ewise_unary(
            "log", ewise_binary("+", env.tensors["c"], env.tensors["x"])
        ),
        logadd_oracle,
    )

    # degree-two matrices: mixed product, trace contraction, diagonal attraction
    Am = rng.standard_normal((3, 4, 2, 2))
    Bm = rng.standard_normal((4, 5, 2, 2))

    def build_matrix_product(env):
        env.tensors["A"] = with_indices(Am, [env.index("i"), ~env.index("j")])
        env.tensors["B"] = with_indices(Bm, [env.index("i"), ~env.index("j")])

    def matrix_product_oracle(env):
        out = np.zeros((3, 5, 2, 2))
        for vi in range(2):
            for vj in range(2):
                out[:, :, vi, vj] = Am[:, :, vi, vj] @ Bm[:, :, vi, vj]
        return out

    row(
        "A(i,~j)*B(i,~j)",
        build_matrix_product,
        lambda env: product(
            env.tensors["A"].reindex([env.index("i"), ~env.index("j")]),
            env.tensors["B"].reindex([env.index("i"), ~env.index("j")]),
        ),
        matrix_product_oracle,
    )

    Cm = rng.standard_normal((3, 3, 2, 2))

    def build_c(env):
        env.tensors["C"] = with_indices(Cm, [env.index("i"), env.index("j")])

    row(
        "trace(C(i,~i))",
        build_c,
        lambda env: page_trace(
            env.tensors["C"].reindex([env.index("i"), ~env.index("i")])
        ),
        lambda env: np.trace(Cm[:, :, 0, 0] + Cm[:, :, 1, 1]).reshape(1, 1),
    )

    def diag_oracle(env):
        out = np.zeros((3, 1, 2))
        for d in range(2):
            out[:, 0, d] = np.diag(Cm[:, :, d, d])
        return out

    row(
        "diag(C(i,i))",
        build_c,
        lambda env: page_diag(env.tensors["C"].reindex([env.index("i"), env.index("i")])),
        diag_oracle,
    )

    # any-degree inner product via conjugate transposition
    x_data = rng.standard_normal((4, 1, 2)) + 1j * rng.standard_normal((4, 1, 2))

    def build_x(env):
        env.tensors["x"] = with_indices(x_data, [~env.index("k")])

    row(
        "x(~k)'*x(~k)",
        build_x,
        lambda env: product(
            page_ctranspose(env.tensors["x"].reindex([~env.index("k")])),
            env.tensors["x"].reindex([~env.index("k")]),
        ),
        lambda env: np.array([[(np.abs(x_data) ** 2).sum()]], dtype=complex),
    )

    # bracket concatenations and the outer relation
    c_col = rng.standard_normal((4, 1))

    def build_col(env):
        env.tensors["c"] = with_indices(c_col, []).reindex([env.index("i")])

    row(
        "[ones(4,1) abs(c(i))]",
        build_col,
        lambda env: concat(1, [np.ones((4, 1)), ewise_unary("abs", env.tensors["c"])]),
        lambda env: np.concatenate([np.ones((4, 1)), np.abs(c_col)], axis=1).reshape(4, 2, 1),
    )

    b_col = rng.standard_normal((3, 1))

    def build_row(env):
        env.tensors["b"] = with_indices(b_col, []).reindex([env.index("j")])

    row(
        "[b(j).'; ones(1,3)]",
        build_row,
        lambda env: concat(0, [page_transpose(env.tensors["b"]), np.ones((1, 3))]),
        lambda env: np.concatenate([b_col.T, np.ones((1, 3))], axis=0).reshape(2, 3, 1),
    )

    A_rel = rng.standard_normal((4, 3))

    def build_rel(env):
        env.tensors["A"] = with_indices(A_rel, [])
        env.tensors["b"] = with_indices(b_col, []).reindex([env.index("j")])

    def rel_oracle(env):
        out = np.zeros((4, 3), dtype=bool)
        for r in range(4):
            for c in range(3):
                out[r, c] = A_rel[r, c] >= b_col[c, 0]
        return out.reshape(4, 3, 1, 1)

    row(
        "A(i,~j) >= b(j).'",
        build_rel,
        lambda env: ewise_binary(
            ">=",
            env.tensors["A"].reindex([env.index("i"), ~env.index("j")]),
            page_transpose(env.tensors["b"]),
        ),
        rel_oracle,
    )

    # index concatenation
    Ac = rng.standard_normal((1, 1, 2, 3))
    Bc = rng.standard_normal((1, 1, 3, 2))

    def build_cat(env):
        env.tensors["A"] = with_indices(Ac, [env.index("i"), env.index("j")])
        env.tensors["B"] = with_indices(Bc, [env.index("j"), env.index("k")])

    def cat_oracle(env):
        i, j, k = env.index("i"), env.index("j"), env.index("k")
        want, _ = selector_concat([(Ac, (i, j)), (Bc, (j, k))], j.id)
        return want

    row(
        "cat(j,A(i,j),B(j,k))",
        build_cat,
        lambda env: concat(
            env.index("j"),
            [
                env.tensors["A"].reindex([env.index("i"), env.index("j")]),
                env.tensors["B"].reindex([env.index("j"), env.index("k")]),
            ],
        ),
        cat_oracle,
    )

    # variant-conflict equality rule
    row(
        "isequal(a(i),a(~i))",
        lambda env: _vec(env, "a", ints(3), "i"),
        lambda env: False,
        lambda env: False,
    )
    row(
        "isequal(a(i),a(i))",
        lambda env: _vec(env, "a", ints(3), "i"),
        lambda env: True,
        lambda env: True,
    )

    _report(
        2,
        not failures,
        f"golden expression suite, 18 rows via language, direct calls, and oracles"
        + ("" if not failures else f"; failures: {failures}"),
    )


# -- 3. division consistency -------------------------------------------------------


def test_criterion_3_division_consistency():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for trial in range(8):
        l, lp, i = fresh_many(3)
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        A_data = rng.standard_normal((n, n)) + n * np.eye(n)
        b_data = rng.standard_normal((m, n))
        A = with_indices(A_data.reshape(1, 1, n, n), [l, lp])
        b = with_indices(b_data.reshape(1, 1, m, n), [i, lp])
        u = solve_left(A, b)
        assert u.indices[0] == ~l  # denominator leftover comes back complemented
        recon = assign([i, lp], product(A, u))
        worst = max(
            worst,
            np.abs(recon.entries - b.entries).max() / np.abs(b_data).max(),
        )
    _report(3, worst <= 1e-10, f"solve/product round trip residual {worst:.2e} <= 1e-10")


# -- 4. CP key step -------------------------------------------------------------------


def test_criterion_4_cp_key_step():
    rng = np.random.default_rng(808)
    n, rank = 4, 2
    u0 = rng.standard_normal((n, rank))
    v0 = rng.standard_normal((n, rank))
    w0 = rng.standard_normal((n, rank))
    a = np.einsum("il,jl,kl->ijk", u0, v0, w0)
    i, j, k, l, lp = fresh_many(5)
    ta = with_indices(a.reshape((1, 1) + a.shape), [i, j, k])
    sc = lambda m, idx: with_indices(np.ascontiguousarray(m).reshape((1, 1) + m.shape), idx)
    gram = product(
        product(sc(v0, [j, l]), sc(v0, [~j, lp])),
        product(sc(w0, [k, l]), sc(w0, [~k, lp])),
    )
    numer1 = product(product(ta, sc(v0, [~j, lp])), sc(w0, [~k, lp]))
    numer2 = product(ta, product(sc(v0, [~j, lp]), sc(w0, [~k, lp])))
    n1 = assign([i, lp], numer1).entries
    n2 = assign([i, lp], numer2).entries
    pairing = np.abs(n1 - n2).max() / np.abs(n1).max()

    u_new = assign([i, ~l], solve_left(gram, numer1)).entries.reshape(n, rank)
    fit = lambda u: np.linalg.norm(np.einsum("il,jl,kl->ijk", u, v0, w0) - a) / np.linalg.norm(a)
    u_init = u0 + 0.3 * rng.standard_normal(u0.shape)
    ok = pairing <= 1e-12 and fit(u_new) < fit(u_init)
    _report(
        4,
        ok,
        f"key step fit {fit(u_init):.2e} -> {fit(u_new):.2e}, pairings agree to {pairing:.1e}",
    )


# -- 5. FFT correctness -----------------------------------------------------------------


def test_criterion_5_fft_correctness():
    rng = np.random.default_rng(31415)
    worst_op, worst_inv, worst_par = 0.0, 0.0, 0.0
    for m in (8, 16, 401):
        x = rng.standard_normal((m, m))
        u = dft_operator(m)
        want = u @ x @ u.T
        got = fft2(x)
        worst_op = max(worst_op, np.abs(got - want).max() / np.abs(want).max())
        worst_inv = max(worst_inv, np.abs(ifft2(got) - x).max())
        space = (np.abs(x) ** 2).sum()
        freq = (np.abs(got) ** 2).sum() / x.size
        worst_par = max(worst_par, abs(space - freq) / space)
    ok = worst_op <= 1e-9 and worst_inv <= 1e-10 and worst_par <= 1e-10
    _report(
        5,
        ok,
        f"fft2 vs operator {worst_op:.1e}, inverse {worst_inv:.1e}, Parseval {worst_par:.1e} "
        "at sizes 8, 16, 401",
    )


def _fd_instance(m=8, n=8):
    rng = np.random.default_rng(11)
    gt = np.abs(rng.standard_normal((m, n)))
    r = np.hypot(*np.meshgrid(np.arange(m) - m // 2, np.arange(n) - n // 2, indexing="ij"))
    wb = (r < 1) | (r > 3)
    gt[wb] = 0
    phi_true = make_aberration(m, n, 5)
    xa = np.real(ifft2(fft2(gt) * np.exp(1j * phi_true)))
    phi = make_aberration(m, n, 6) * 0.3
    return xa, wb, phi


# -- 6. gradient check ---------------------------------------------------------------------


def test_criterion_6_gradient_check():
    xa, wb, phi = _fd_instance()
    e, grad, xt = sse(phi, xa, wb, want_gradient=True)
    assert np.abs(xt[~wb]).min() > 1e-3  # away from mask switches
    rng = np.random.default_rng(7)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(phi.shape)
        ep, _, _ = sse(phi + eps * d, xa, wb)
        em, _, _ = sse(phi - eps * d, xa, wb)
        fd = (ep - em) / (2 * eps)
        an = float((grad * d).sum())
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    _report(6, worst <= 1e-6, f"gradient vs central differences, 20 directions, worst {worst:.1e}")


# -- 7. Hessian-multiply check ------------------------------------------------------------


def test_criterion_7_hessian_multiply_check():
    xa, wb, phi = _fd_instance()
    _, _, xt = sse(phi, xa, wb)
    rng = np.random.default_rng(9)
    dphi = rng.standard_normal((8, 8, 3))
    f = hess_mult(xt, dphi, wb)
    eps = 1e-5
    worst = 0.0
    for k in range(3):
        _, gp, _ = sse(phi + eps * dphi[:, :, k], xa, wb, want_gradient=True)
        _, gm, _ = sse(phi - eps * dphi[:, :, k], xa, wb, want_gradient=True)
        fd = (gp - gm) / (2 * eps)
        hv = f[:, k].reshape(8, 8)
        worst = max(worst, np.abs(fd - hv).max() / np.abs(fd).max())
    f1 = hess_mult(xt, dphi[:, :, 0], wb)
    f2 = hess_mult(xt, dphi[:, :, 1], wb)
    f12 = hess_mult(xt, 2.0 * dphi[:, :, 0] - 3.0 * dphi[:, :, 1], wb)
    lin = np.abs(f12 - (2 * f1 - 3 * f2)).max() / max(np.abs(f12).max(), 1e-300)
    ok = worst <= 1e-5 and lin <= 1e-12
    _report(7, ok, f"Hessian-multiply vs gradient differences {worst:.1e}, linearity {lin:.1e}")


# -- 8. scaling ------------------------------------------------------------------------------


def test_criterion_8_scaling():
    sizes = [64, 128, 256, 512]
    rows = benchmark(sizes, reps=5)
    by = {(r.m, r.op): r for r in rows}
    ratios_grad = []
    ratios_hmf = []
    for m in sizes:
        ratios_grad.append(by[(m, "sse_grad")].secs / by[(m, "sse")].secs)
        ratios_hmf.append(by[(m, "hmf")].secs / by[(m, "sse_grad")].secs)
    exps = []
    mns = [m * m for m in sizes]
    for op in ("sse", "sse_grad", "hmf"):
        ys = [by[(m, op)].bytes for m in sizes]
        exps.append(float(np.polyfit(np.log(mns), np.log(ys), 1)[0]))
    ok = (
        max(ratios_grad) <= 4.0
        and max(ratios_hmf) <= 8.0
        and all(0.9 <= e <= 1.2 for e in exps)
    )
    _report(
        8,
        ok,
        f"grad/sse <= {max(ratios_grad):.2f} (bound 4), hmf/grad <= {max(ratios_hmf):.2f} "
        f"(bound 8), byte exponents {[round(e, 2) for e in exps]} in [0.9, 1.2]",
    )


# -- 9. end-to-end enhancement ------------------------------------------------------------------


def test_criterion_9_end_to_end_enhancement():
    inst = make_instance(SceneConfig(size=64, seed=7))
    start = time.perf_counter()
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=200))
    elapsed = time.perf_counter() - start
    traj = report.sse_trajectory
    monotone = all(traj[k + 1] <= traj[k] for k in range(len(traj) - 1))
    background = np.abs(report.corrected[inst.mask]).max()
    foreground = report.corrected[~inst.mask].max()
    ok = (
        traj[-1] <= 1e-3 * traj[0]
        and report.iterations <= 200
        and elapsed < 60.0
        and monotone
        and background <= 1e-2 * foreground
    )
    _report(
        9,
        ok,
        f"64x64 seed 7: sse {traj[0]:.2e} -> {traj[-1]:.2e} in {report.iterations} iterations "
        f"({elapsed:.1f}s), monotone={monotone}, background/foreground {background / foreground:.1e}",
    )


# -- 10. engine microbenchmark ----------------------------------------------------------------------


def test_criterion_10_product_overhead():
    rng = np.random.default_rng(0)
    ratios = {}
    for pages in (64, 128):
        A = rng.standard_normal((100, 100, pages))
        B = rng.standard_normal((100, 100, pages))
        k = fresh_many(1)[0]
        ta = with_indices(A, [k])
        tb = with_indices(B, [k])

        def raw():
            # fastest hand-written pagewise multiply of the same arrays
            return np.matmul(
                np.ascontiguousarray(A.transpose(2, 0, 1)),
                np.ascontiguousarray(B.transpose(2, 0, 1)),
            )

        def engine():
            return product(ta, tb)

        raw(), engine()  # warm caches
        def med(fn, n=9):
            ts = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                ts.append(time.perf_counter() - t0)
            return float(np.median(ts))

        ratios[pages] = med(engine) / med(raw)
    ok = all(r <= 2.0 for r in ratios.values())
    _report(
        10,
        ok,
        "engine product vs raw pagewise multiply on 100x100xP: "
        + ", ".join(f"P={p}: {r:.2f}x" for p, r in ratios.items())
        + " (bound 2x)",
    )
