"""Dense tensors: a multidimensional value bound to an ordered list of indices.

Array dimensions 0 and 1 are matrix rows and columns and never carry an index;
tensor dimension ``t`` lives at array dimension ``t + 2``.  The degree of a
tensor is the number of indices, which may exceed the stored array's trailing
dimensions (extra indices address virtual trailing singletons).  A tensor with
1x1 rows and columns is a "scalar" of its degree; a degree-0 tensor with
nontrivial rows or columns is an ordinary matrix or vector.

``simplify`` normalizes an index list with repeats: every group of positions
sharing an identity collapses to its generalized diagonal (attraction), and the
group is additionally summed away when it mixed variants (contraction).  These
are the two rules of ``np.einsum``, so one ``einsum`` call does both.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AssignKindError,
    BoundsError,
    DimMismatchError,
    ElementKindError,
    IndexArityError,
    OperandKindError,
    SubscriptKindError,
    UnknownIndexError,
)
from .indices import IndexHandle, fresh_many

__all__ = ["Tensor", "from_array", "with_indices", "assign"]


# element dtype kind -> tensor element type; every other kind is rejected
_ELEMENT_KINDS = {"b": np.bool_, "i": np.float64, "u": np.float64, "f": np.float64,
                  "c": np.complex128}


def _entries(values) -> np.ndarray:
    """The one rule by which a plain value becomes entries: an array of one
    of the three element kinds, boolean, float64 or complex128, where 0-D is
    1x1, 1-D is one row and 2-D or more stays as it is.  Integers widen to
    float64; any other dtype (timedelta and datetime included) raises
    ``ElementKindError``."""
    arr = np.asarray(values)
    target = _ELEMENT_KINDS.get(arr.dtype.kind)
    if target is None:
        raise ElementKindError(f"unsupported element dtype {arr.dtype}")
    arr = arr.astype(target, copy=False)
    return arr.reshape((1,) * (2 - arr.ndim) + arr.shape) if arr.ndim < 2 else arr


def _arithmetic(dtype) -> np.dtype:
    """The element kind arithmetic on ``dtype`` yields: booleans count as
    float64, and float64 and complex128 stay as they are."""
    return np.promote_types(dtype, np.float64)


def _ieee() -> np.errstate:
    """The floating-point policy of every engine kernel: overflow, division by
    zero and invalid operations give inf and NaN silently, never a warning."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


# numpy arrays hold at most 64 axes, and rows and columns take two of them
_MAX_DEGREE = 62


def _check_degree(degree: int) -> None:
    """Reject a result degree no array can hold, before any array is built."""
    if degree > _MAX_DEGREE:
        raise IndexArityError(f"degree {degree} exceeds the {_MAX_DEGREE} indices an array holds")


def _fit(arr: np.ndarray, degree: int) -> np.ndarray:
    """``arr`` with exactly ``2 + degree`` dimensions: trailing singletons are
    dropped or added; the caller has checked that no other axis is dropped."""
    _check_degree(degree)
    if arr.ndim == 2 + degree:
        return arr
    target = arr.shape[:2 + degree]
    return arr.reshape(target + (1,) * (2 + degree - len(target)))


# Source bytes per slab of a packed fold.  numpy copies a transposed view in
# the destination's order, so its reads stride across the whole source and
# each cache line is fetched again for every element used from it.  Copied a
# slab at a time, the lines a slab touches stay in L1/L2 cache until every
# element of them is used.  16-64 KiB slabs packed 100x100xP folds equally
# fast; 128 KiB and larger ones were up to 1.7x slower.
_SLAB_BYTES = 64 * 1024


def _seal(t: "Tensor", arr: np.ndarray, indices: tuple) -> None:
    entries = arr.view()  # a new view, so the flag below is ours
    entries.setflags(write=False)
    object.__setattr__(t, "entries", entries)
    object.__setattr__(t, "indices", indices)


class Tensor:
    """Immutable dense tensor value.

    Every tensor keeps one invariant: ``entries`` is a read-only view with
    ``ndim == 2 + degree`` and a bool, float64 or complex128 dtype.  Trailing
    singleton dimensions are materialized at construction so each index owns
    one array dimension.  ``entries`` may share memory with the array passed
    in: the caller must not mutate that array afterwards.  Duplicate
    identities in the index list are allowed until :meth:`simplify` runs;
    every engine operation simplifies its operands on entry.

    The public constructor checks and coerces its input into that invariant.
    Arrays the engine builds itself already hold it, so the engine wraps them
    with the private, trusted :meth:`_wrap`, which skips every check.
    """

    __slots__ = ("entries", "indices")

    def __init__(self, entries, indices: Sequence[IndexHandle] = ()):
        arr = _entries(entries)
        idx = tuple(indices)
        if any(not isinstance(h, IndexHandle) for h in idx):
            raise SubscriptKindError("tensor indices must be IndexHandle values")
        if any(n != 1 for n in arr.shape[2 + len(idx):]):
            raise IndexArityError(
                f"{len(idx)} indices cannot address an array shaped {arr.shape}")
        _seal(self, _fit(arr, len(idx)), idx)

    @classmethod
    def _wrap(cls, entries: np.ndarray, indices) -> "Tensor":
        """The trusted constructor, for arrays the engine built itself.

        ``entries`` must already be bool, float64 or complex128 with
        ``ndim == 2 + len(indices)``, and ``indices`` IndexHandle values;
        nothing is checked or coerced.  Only the read-only view is taken.
        """
        t = object.__new__(cls)
        _seal(t, entries, tuple(indices))
        return t

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Tensor is immutable")

    def __delattr__(self, name):
        raise AttributeError("Tensor is immutable")

    def __copy__(self) -> "Tensor":  # an immutable value is its own copy
        return self

    def __deepcopy__(self, memo) -> "Tensor":
        return self

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.indices)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def tensor_dims(self) -> tuple[int, ...]:
        return self.entries.shape[2:]

    @property
    def kind(self) -> str:
        return {np.bool_: "boolean", np.float64: "real64", np.complex128: "complex128"}[
            self.entries.dtype.type
        ]

    def fold(self, groups: Iterable[Sequence]) -> np.ndarray:
        """Entries with each group's axes permuted together and fused into one axis.

        A group lists matrix axes (``0`` rows, ``1`` columns) and index
        handles; within a group the first listed axis varies slowest.  A
        handle whose identity the tensor lacks stands for a size-1 axis, so
        an empty group fuses to size 1.  Together the groups must name every
        axis of the entries exactly once.  The result is a view whenever the
        permuted layout allows one.
        """
        permuted, shape = self._permuted(groups)
        return permuted.reshape(shape)

    def _packed_fold(self, groups: Iterable[Sequence]) -> np.ndarray:
        """:meth:`fold` as a C-contiguous array for a matrix kernel, with
        booleans cast to float64 in the same copy.

        A fold that is already C-contiguous (and not boolean) is returned as
        the view it is.  Any other fold is copied slab by slab along the
        source's outermost axis in memory.
        """
        permuted, shape = self._permuted(groups)
        dtype = _arithmetic(permuted.dtype)
        if permuted.flags.c_contiguous and dtype == permuted.dtype:
            return permuted.reshape(shape)
        out = np.empty(permuted.shape, dtype)
        if permuted.nbytes <= _SLAB_BYTES:
            out[...] = permuted
            return out.reshape(shape)
        stride = [abs(s) if n > 1 else 0 for s, n in zip(permuted.strides, permuted.shape)]
        q = stride.index(max(stride))
        step = max(1, _SLAB_BYTES // max(stride[q], 1))
        lead = (slice(None),) * q
        for i in range(0, permuted.shape[q], step):
            slab = lead + (slice(i, i + step),)
            out[slab] = permuted[slab]
        return out.reshape(shape)

    def _permuted(self, groups) -> tuple[np.ndarray, list[int]]:
        """The fold plan: entries transposed so each group's axes are
        adjacent and in order (a view), and the fused shape."""
        dims = self.entries.shape
        axis_of = {h.id: t for t, h in enumerate(self.indices, 2)}
        perm: list[int] = []
        shape: list[int] = []
        for group in groups:
            n = 1
            for g in group:
                axis = g if isinstance(g, int) else axis_of.get(g.id)
                if axis is not None:
                    perm.append(axis)
                    n *= dims[axis]
            shape.append(n)
        return self.entries.transpose(perm), shape

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.entries.shape)
        return f"Tensor({dims}, indices={list(self.indices)}, kind={self.kind})"

    # -- subscripting ------------------------------------------------------

    def reindex(self, subs: Sequence[IndexHandle]) -> "Tensor":
        """Rebind the stored array to ``subs`` and simplify.

        Prior indices are ignored; the subscripts redefine the index list
        outright, after which repeated identities are attracted and, when they
        mix variants, contracted.
        """
        return Tensor(self.entries, subs).simplify()

    def slice(self, subs: Sequence) -> np.ndarray:
        """Numeric subscripting, 1-based, delegated to the stored array.

        Takes 1-based integers and ``":"`` for a whole dimension; any other
        subscript raises ``SubscriptKindError``.  A single integer subscript
        on a multi-dimension tensor is a linear index in row-major order.
        """
        if any(isinstance(s, IndexHandle) for s in subs):
            raise SubscriptKindError("slice takes numeric subscripts only")
        shape = self.entries.shape
        if len(subs) == 1 and len(shape) > 1 and not _is_colon(subs[0]):
            k = subs[0]
            if not isinstance(k, (int, np.integer)):
                raise SubscriptKindError("linear subscript must be an integer")
            if k < 1 or k > self.entries.size:
                raise BoundsError(f"linear subscript {k} out of range 1..{self.entries.size}")
            return self.entries.reshape(-1)[k - 1]
        if len(subs) > len(shape):
            extra = subs[len(shape):]
            if any(not _is_colon(s) and s != 1 for s in extra):
                raise BoundsError("subscript beyond the last dimension must be 1")
            subs = subs[: len(shape)]
        out = []
        for d, s in enumerate(subs):
            n = shape[d]
            if _is_colon(s):
                out.append(np.s_[:])
            elif isinstance(s, (int, np.integer)):
                if s < 1 or s > n:
                    raise BoundsError(f"subscript {s} out of range 1..{n} in dimension {d + 1}")
                out.append(s - 1)
            else:
                raise SubscriptKindError(f"unsupported subscript {s!r}")
        return self.entries[tuple(out)]

    # -- unary ops ---------------------------------------------------------

    def sum(self, over: Iterable[IndexHandle]) -> "Tensor":
        """Sum the stored array over matched identities, irrespective of variants."""
        over_ids = {h.id for h in over}
        axes = tuple(t + 2 for t, h in enumerate(self.indices) if h.id in over_ids)
        if not axes:
            return self
        with _ieee():
            arr = self.entries.sum(axis=axes, dtype=_arithmetic(self.entries.dtype))
        return Tensor._wrap(arr, [h for h in self.indices if h.id not in over_ids])

    def simplify(self) -> "Tensor":
        """Attract every repeated identity and contract the groups that mixed
        variants, in one ``np.einsum``."""
        ids = [h.id for h in self.indices]
        if len(set(ids)) == len(ids):
            return self
        axes: dict[int, list[int]] = {}  # identity -> its axes, in first-occurrence order
        for t, i in enumerate(ids, 2):
            axes.setdefault(i, []).append(t)
        # einsum has 52 labels, so only repeated identities take one; numpy's
        # 64 axes leave room for at most 31 of them
        label: dict[int, int] = {}
        summed = set()
        for i, group in axes.items():
            if len(group) > 1:
                label[i] = len(label)
                sizes = sorted({self.entries.shape[a] for a in group})
                if len(sizes) > 1:
                    raise DimMismatchError(
                        "index {} repeats with sizes {}", self.indices[group[0] - 2], sizes)
                if len({self.indices[a - 2].variant for a in group}) > 1:
                    summed.add(i)
        # the unrepeated axes pass through "..." ahead of the repeated ones
        tied = [t for t, i in enumerate(ids, 2) if i in label]
        arr = self.entries.transpose(
            [0, 1] + [group[0] for i, group in axes.items() if i not in label] + tied)
        if summed and arr.dtype == np.bool_:  # einsum sums booleans as a logical OR
            arr = arr.astype(np.float64)
        kept = [i for i in axes if i not in summed]
        out = np.einsum(arr, [..., *(label[ids[t - 2]] for t in tied)],
                        [..., *(label[i] for i in kept if i in label)])
        order = [i for i in kept if i not in label] + [i for i in kept if i in label]
        return Tensor._wrap(out.transpose([0, 1] + [2 + order.index(i) for i in kept]),
                            [self.indices[axes[i][0] - 2] for i in kept])


def _operand(op) -> Tensor:
    """``op`` as every engine operation takes it: a tensor simplified, and any
    other value as the index-free tensor of its :func:`_entries`, at most 2-D."""
    if isinstance(op, Tensor):
        return op.simplify()
    arr = _entries(op)
    if arr.ndim > 2:
        raise OperandKindError(f"plain operands must be at most 2D, got {arr.ndim}D")
    return Tensor._wrap(arr, ())


def _is_colon(s) -> bool:
    return isinstance(s, str) and s == ":"


# -- construction and assignment ------------------------------------------


def from_array(values) -> tuple[Tensor, list[IndexHandle]]:
    """Wrap a dense array, minting one fresh true-variant index per tensor dimension.

    A 1-D ``values`` is one row.  The tensor may share memory with ``values``;
    do not mutate ``values`` afterwards.
    """
    arr = _entries(values)  # ndim >= 2, one fresh index per axis after the second
    idx = fresh_many(arr.ndim - 2)
    return Tensor._wrap(arr, idx), idx


def with_indices(values, idx: Sequence[IndexHandle]) -> Tensor:
    """Wrap a dense array with the given indices (no simplification applied)."""
    return Tensor(values, idx)


def assign(subs: Sequence[IndexHandle], src) -> Tensor:
    """Indexed assignment: reorder ``src`` into the order of ``subs``.

    ``subs`` must name every identity of ``src``, each once; identities
    ``src`` lacks address trailing singletons.  The result's indices are
    ``subs`` verbatim, so the left-hand subscripts fix both the dimension
    order and the variants.
    """
    if not isinstance(src, Tensor):
        raise AssignKindError("indexed assignment requires a tensor right-hand side")
    subs = tuple(subs)
    if any(not isinstance(s, IndexHandle) for s in subs):
        raise SubscriptKindError("indexed assignment requires index-handle subscripts")
    ids = {h.id for h in subs}
    for h in src.indices:
        if h.id not in ids:
            raise UnknownIndexError("subscripts do not cover index {}", h)
    if len(ids) != len(subs):
        raise SubscriptKindError("indexed assignment lists an identity twice")
    _check_degree(len(subs))
    return Tensor._wrap(src.fold([[0], [1]] + [[h] for h in subs]), subs)
