"""Independent reference implementations used to check the engine.

Everything here is deliberately written as explicit Python loops (or direct
summation formulas) over small operands, with no lattices, no alignment
machinery, and no reuse of the code under test.  The one exception is
``rt_model``, the coronagraph model built on the engine's own operations: it
checks the demo's numpy path and shares none of its code.
"""

from __future__ import annotations

import itertools

import numpy as np


def _value_at(entries, indices, assign_map, r, c):
    """Entry at matrix position (r, c) and index values given by assign_map.

    Size-1 dimensions read position 0 regardless of the assigned value
    (broadcast replication).
    """
    pos = [r if entries.shape[0] > 1 else 0, c if entries.shape[1] > 1 else 0]
    for t, h in enumerate(indices):
        size = entries.shape[t + 2]
        v = assign_map[h.id]
        pos.append(v if size > 1 else 0)
    return entries[tuple(pos)]


def dim_of(entries, indices, h):
    """Size of the axis carrying the identity of ``h``; 1 when it is absent."""
    for t, own in enumerate(indices):
        if own.id == h.id:
            return entries.shape[t + 2]
    return 1


def joint(*sizes):
    """The size that axes of ``sizes`` broadcast to: the one that is not 1
    (0 included), or 1 when all are."""
    return next((n for n in sizes if n != 1), 1)


def loop_product(ae, ai, be, bi):
    """Naive product: classify ids, then sum with nested loops.

    Returns ``(entries, index_list)`` in the engine's result layout:
    left leftovers, right leftovers, pages (left variants), with matrix
    rows from the left operand and columns from the right.
    """
    b_pos = {h.id: h for h in bi}
    a_ids = {h.id for h in ai}
    inner = [h for h in ai if h.id in b_pos and b_pos[h.id].variant != h.variant]
    pages = [h for h in ai if h.id in b_pos and b_pos[h.id].variant == h.variant]
    a_out = [h for h in ai if h.id not in b_pos]
    b_out = [h for h in bi if h.id not in a_ids]

    inner_dims = [joint(dim_of(ae, ai, h), dim_of(be, bi, h)) for h in inner]
    page_dims = [joint(dim_of(ae, ai, h), dim_of(be, bi, h)) for h in pages]
    a_out_dims = [dim_of(ae, ai, h) for h in a_out]
    b_out_dims = [dim_of(be, bi, h) for h in b_out]

    ra, ca = ae.shape[:2]
    rb, cb = be.shape[:2]
    if ca == rb:
        rows, cols, q_range = ra, cb, range(ca)
        mode = "matmul"
    elif (ra, ca) == (1, 1):
        rows, cols, q_range = rb, cb, [None]
        mode = "scale_a"
    elif (rb, cb) == (1, 1):
        rows, cols, q_range = ra, ca, [None]
        mode = "scale_b"
    else:
        raise ValueError("nonconforming matrices")

    shape = [rows, cols] + a_out_dims + b_out_dims + page_dims
    out = np.zeros(shape, dtype=np.result_type(ae, be, np.float64))
    all_ids = a_out + b_out + pages
    for outer_vals in itertools.product(*(range(d) for d in a_out_dims + b_out_dims + page_dims)):
        assign_map = {h.id: v for h, v in zip(all_ids, outer_vals)}
        for r in range(rows):
            for c in range(cols):
                acc = 0
                for q in q_range:
                    for inner_vals in itertools.product(*(range(d) for d in inner_dims)):
                        for h, v in zip(inner, inner_vals):
                            assign_map[h.id] = v
                        if mode == "matmul":
                            va = _value_at(ae, ai, assign_map, r, q)
                            vb = _value_at(be, bi, assign_map, q, c)
                        elif mode == "scale_a":
                            va = _value_at(ae, ai, assign_map, 0, 0)
                            vb = _value_at(be, bi, assign_map, r, c)
                        else:
                            va = _value_at(ae, ai, assign_map, r, c)
                            vb = _value_at(be, bi, assign_map, 0, 0)
                        acc += va * vb
                out[(r, c) + outer_vals] = acc
    return out, a_out + b_out + pages


def loop_solve(ae, ai, be, bi, side):
    """Naive division: ``solve_left(a, b)`` for side "left", ``solve_right(b, a)`` else.

    Per page, the system ``product(a, u) == b`` (left) or ``product(u, a) == b``
    (right) is assembled entry by entry: ids both operands carry with equal
    variants index equations, ids with complementary variants index pages,
    the leftovers of ``a`` index unknowns and those of ``b`` right-hand sides.
    A 1x1 ``a`` against a non-1x1 ``b`` moves ``b``'s matrix into the
    right-hand sides.  Square systems go to ``np.linalg.solve``, tall ones to
    ``np.linalg.lstsq``.  Returns ``(entries, index_list, worst_condition)``
    in the engine's layout; pages whose condition exceeds 1e8 are left NaN.
    """
    a_by = {h.id: h for h in ai}
    b_by = {h.id: h for h in bi}
    inner = [h for h in ai if h.id in b_by and b_by[h.id].variant == h.variant]
    page_src = ai if side == "left" else bi
    pages = [b_by[h.id] for h in page_src
             if h.id in a_by and h.id in b_by and a_by[h.id].variant != b_by[h.id].variant]
    unknown = [h for h in ai if h.id not in b_by]
    rhs = [h for h in bi if h.id not in a_by]

    eq_axis = 0 if side == "left" else 1  # the matrix axis of a and b holding equations
    blocks = ae.shape[:2] == (1, 1) and be.shape[:2] != (1, 1)
    n_eq = 1 if blocks else ae.shape[eq_axis]
    n_free = 1 if blocks else ae.shape[1 - eq_axis]
    rhs_mat = list(be.shape[:2]) if blocks else [be.shape[1 - eq_axis]]
    unk_dims = [dim_of(ae, ai, h) for h in unknown]
    rhs_dims = [dim_of(be, bi, h) for h in rhs]
    page_dims = [joint(dim_of(ae, ai, h), dim_of(be, bi, h)) for h in pages]
    eqs = list(itertools.product(range(n_eq), *(range(dim_of(ae, ai, h)) for h in inner)))
    unks = list(itertools.product(range(n_free), *(range(d) for d in unk_dims)))
    rhss = list(itertools.product(*(range(d) for d in rhs_mat + rhs_dims)))

    def at(q, other):  # matrix position from the equation and the other matrix index
        return (q, other) if side == "left" else (other, q)

    if blocks:
        res_mat = rhs_mat
    else:
        res_mat = [n_free] + rhs_mat if side == "left" else rhs_mat + [n_free]
    lead = unk_dims + rhs_dims if side == "left" else rhs_dims + unk_dims
    dtype = np.result_type(ae, be, np.float64)
    out = np.full(res_mat + lead + page_dims, np.nan, dtype=dtype)
    worst = 0.0
    for pvals in itertools.product(*(range(d) for d in page_dims)):
        amap = {h.id: v for h, v in zip(pages, pvals)}
        M = np.zeros((len(eqs), len(unks)), dtype=dtype)
        R = np.zeros((len(eqs), len(rhss)), dtype=dtype)
        for e, (q, *ivals) in enumerate(eqs):
            amap.update((h.id, v) for h, v in zip(inner, ivals))
            for f, (fm, *uvals) in enumerate(unks):
                amap.update((h.id, v) for h, v in zip(unknown, uvals))
                M[e, f] = _value_at(ae, ai, amap, *((0, 0) if blocks else at(q, fm)))
            for g, vals in enumerate(rhss):
                bm, rvals = vals[: len(rhs_mat)], vals[len(rhs_mat):]
                amap.update((h.id, v) for h, v in zip(rhs, rvals))
                R[e, g] = _value_at(be, bi, amap, *(bm if blocks else at(q, bm[0])))
        s = np.linalg.svd(M, compute_uv=False)
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
        worst = max(worst, cond)
        if cond > 1e8:
            continue
        X = np.linalg.solve(M, R) if M.shape[0] == M.shape[1] else np.linalg.lstsq(M, R, rcond=None)[0]
        for f, (fm, *uvals) in enumerate(unks):
            for g, vals in enumerate(rhss):
                bm, rvals = vals[: len(rhs_mat)], vals[len(rhs_mat):]
                if blocks:
                    mat = tuple(bm)
                else:
                    mat = (fm, bm[0]) if side == "left" else (bm[0], fm)
                ix = tuple(uvals) + tuple(rvals) if side == "left" else tuple(rvals) + tuple(uvals)
                out[mat + ix + pvals] = X[f, g]
    unk_handles = [~h for h in unknown]
    indices = unk_handles + rhs + pages if side == "left" else rhs + unk_handles + pages
    return out, indices, worst


def loop_ewise(fn, ae, ai, be, bi):
    """Naive aligned entrywise operation with union order and contraction."""
    union = []
    variants = {}
    both = set()
    for h in list(ai) + list(bi):
        if h.id not in variants:
            variants[h.id] = h
            union.append(h)
        elif variants[h.id].variant != h.variant:
            both.add(h.id)

    dims = [joint(dim_of(ae, ai, h), dim_of(be, bi, h)) for h in union]
    rows = joint(ae.shape[0], be.shape[0])
    cols = joint(ae.shape[1], be.shape[1])
    sample = fn(*(e.ravel()[0] if e.size else e.dtype.type(0) for e in (ae, be)))
    out = np.zeros([rows, cols] + dims, dtype=np.result_type(type(sample), np.float64) if not isinstance(sample, (bool, np.bool_)) else np.bool_)
    for vals in itertools.product(*(range(d) for d in dims)):
        assign_map = {h.id: v for h, v in zip(union, vals)}
        for r in range(rows):
            for c in range(cols):
                va = _value_at(ae, ai, assign_map, r, c)
                vb = _value_at(be, bi, assign_map, r, c)
                out[(r, c) + vals] = fn(va, vb)
    kept = [h for h in union if h.id not in both]
    if both:
        axes = tuple(2 + k for k, h in enumerate(union) if h.id in both)
        out = out.sum(axis=axes)
    return out, kept


def loop_simplify(entries, indices):
    """Naive attraction and contraction of repeated identities in one operand.

    Returns ``(entries, index_list)`` in the engine's layout: one index per
    identity in first-occurrence order with its first variant, except that
    identities seen in both variants are summed away.  Every occurrence of an
    identity reads the same position, which is attraction.  Boolean entries
    become float64 when something is summed.
    """
    first, variants, size = {}, {}, {}
    for t, h in enumerate(indices):
        first.setdefault(h.id, h)
        variants.setdefault(h.id, set()).add(h.variant)
        size.setdefault(h.id, entries.shape[t + 2])
    kept = [h for i, h in first.items() if len(variants[i]) == 1]
    summed = [h for i, h in first.items() if len(variants[i]) > 1]
    dtype = np.float64 if summed and entries.dtype == np.bool_ else entries.dtype
    rows, cols = entries.shape[:2]
    out = np.zeros([rows, cols] + [size[h.id] for h in kept], dtype=dtype)
    for kept_vals in itertools.product(*(range(size[h.id]) for h in kept)):
        at = {h.id: v for h, v in zip(kept, kept_vals)}
        for r in range(rows):
            for c in range(cols):
                acc = 0
                for summed_vals in itertools.product(*(range(size[h.id]) for h in summed)):
                    at.update((h.id, v) for h, v in zip(summed, summed_vals))
                    acc += entries[(r, c) + tuple(at[h.id] for h in indices)]
                out[(r, c) + kept_vals] = acc
    return out, kept


def selector_concat(ops, where):
    """Concatenation built from the piecewise selector construction.

    ``where`` is the id of the concatenation index, or ``"rows"``/``"cols"``
    for a matrix axis.  An identity held in both variants is summed out after
    joining, booleans summing as float64.
    """
    union = []
    seen = set()
    for _, indices in ops:
        for h in indices:
            if h.id not in seen:
                seen.add(h.id)
                union.append(h)

    matrix_axis = {"rows": 0, "cols": 1}.get(where)
    if matrix_axis is None:
        j_sizes = [dim_of(e, idx, next(h for h in union if h.id == where)) for e, idx in ops]
    else:
        j_sizes = [e.shape[matrix_axis] for e, _ in ops]
    dims = []
    for h in union:
        if h.id == where:
            dims.append(sum(j_sizes))
        else:
            dims.append(joint(*(dim_of(e, idx, h) for e, idx in ops)))
    rows = joint(*(e.shape[0] for e, _ in ops))
    cols = joint(*(e.shape[1] for e, _ in ops))
    if matrix_axis == 0:
        rows = sum(j_sizes)
    elif matrix_axis == 1:
        cols = sum(j_sizes)
    out = np.zeros([rows, cols] + dims, dtype=np.result_type(*(e for e, _ in ops)))
    offsets = np.cumsum([0] + j_sizes)

    def piece(j):  # operand holding position j of the joined axis, and j within it
        k = int(np.searchsorted(offsets, j, side="right")) - 1
        return k, j - offsets[k]

    for vals in itertools.product(*(range(d) for d in dims)):
        assign_map = {h.id: v for h, v in zip(union, vals)}
        for r in range(rows):
            for c in range(cols):
                at = dict(assign_map)
                if matrix_axis == 0:
                    k, rr = piece(r)
                    cc = c
                elif matrix_axis == 1:
                    k, cc = piece(c)
                    rr = r
                else:
                    k, at[where] = piece(assign_map[where])
                    rr, cc = r, c
                entries, indices = ops[k]
                out[(r, c) + vals] = _value_at(entries, indices, at, rr, cc)
    variants = {}
    for _, indices in ops:
        for h in indices:
            variants.setdefault(h.id, set()).add(h.variant)
    mixed = [t for t, h in enumerate(union) if len(variants[h.id]) > 1]
    if mixed:
        out = out.sum(axis=tuple(t + 2 for t in mixed),
                      dtype=np.float64 if out.dtype == bool else None)
    return out, [h for t, h in enumerate(union) if t not in mixed]


def azimuthal_profile(image):
    """Mean pixel value per integer radius ring around the center."""
    m, n = image.shape
    r = np.hypot(
        np.arange(m)[:, None] - m // 2, np.arange(n)[None, :] - n // 2
    ).astype(int)
    prof = np.bincount(r.ravel(), weights=image.ravel()) / np.bincount(r.ravel())
    return prof[: min(m, n) // 2]


def count_local_minima(profile):
    inner = profile[1:-1]
    return int(np.sum((inner < profile[:-2]) & (inner < profile[2:])))


def dft_operator(m):
    """Explicit m x m transform matrix exp(-2j*pi*K/m), K = k k^T mod m."""
    k = np.arange(m)
    kk = np.mod(np.outer(k, k), m)
    return np.exp(-2j * np.pi * kk / m)


def rt_model(phi, xa, wb, dphi=None):
    """The coronagraph model built on the engine: ``(E, grad, xt)``, and with
    ``dphi`` (M x N x P) also the Hessian applied to each page, as the
    (M*N) x P matrix ``hess_mult`` returns.

    The 2D DFT is two index contractions with ``dft_operator``, the phase
    factor and every pairing an entrywise product, and the SSE the
    contraction of the error image with its dual.  The Hessian is the
    derivative of the gradient ``2/MN * Im(conj(Yt) o Ye)`` term by term, so
    it holds at every phase, not only an odd-symmetric one.
    """
    from rtensor import assign, ewise_binary, ewise_unary, fresh_many, product, with_indices

    m, n = xa.shape
    r, c, k, l = fresh_many(4)  # image rows and columns, frequency rows and columns

    def plane(a, idx):
        return with_indices(np.ascontiguousarray(a).reshape((1, 1) + a.shape), idx)

    um, un = dft_operator(m), dft_operator(n)
    fwd = plane(um, [k, ~r]), plane(un, [l, ~c])
    inv = plane(um.conj() / m, [r, ~k]), plane(un.conj() / n, [c, ~l])

    def transform(ops, t):
        return product(ops[0], product(ops[1], t))

    def array(t, idx):
        return assign(idx, t).entries.reshape(m, n)

    def im_conj_times(a, b):
        """``Im(conj(a) o b)`` as an M x N array."""
        return array(ewise_binary(".*", ewise_unary("conj", a), b), [k, l]).imag

    yt = ewise_binary(".*", transform(fwd, plane(xa, [r, c])), plane(np.exp(1j * phi), [k, l]))
    xt = array(transform(inv, yt), [r, c]).real
    w = wb | (xt < 0)
    e = ewise_binary(".*", plane(w * xt, [r, c]), plane(w * xt, [~r, ~c])).entries.item()
    ye = transform(fwd, plane(w * xt, [r, c]))
    grad = 2.0 / xt.size * im_conj_times(yt, ye)
    if dphi is None:
        return e, grad, xt
    pages = []
    for step in np.moveaxis(dphi, 2, 0):
        dyt = ewise_binary(".*", yt, plane(1j * step, [k, l]))
        dxt = array(transform(inv, dyt), [r, c]).real
        dye = transform(fwd, plane(w * dxt, [r, c]))
        pages.append(2.0 / xt.size * (im_conj_times(dyt, ye) + im_conj_times(yt, dye)).ravel())
    return e, grad, xt, np.stack(pages, axis=1)
