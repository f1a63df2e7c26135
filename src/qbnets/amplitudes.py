"""Dense complex tensors with integer-labeled axes.

A :class:`LabeledAmplitude` pairs a complex ndarray with a sorted tuple
of node indices, one index per axis. Everything amplitude-shaped in this
package (joint tensors, kets over hidden variables, the messages of the
literal belief-propagation rules) is one of these, so the alignment and
broadcasting rules live here and nowhere else. The message-passing
driver sends plain lambda/pi vectors instead (:mod:`qbnets.qbp`).

Labels are canonicalized to ascending order; products align shared
labels entrywise and never sum. Summation is always explicit, via
:func:`marginalize` / :meth:`LabeledAmplitude.sum_over`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .graph import _as_int


@dataclass(frozen=True, eq=False)
class LabeledAmplitude:
    labels: tuple[int, ...]
    data: np.ndarray

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __mul__(self, other: "LabeledAmplitude") -> "LabeledAmplitude":
        return multiply(self, other)

    def sum_over(self, labels: Iterable[int]) -> "LabeledAmplitude":
        drop = sorted(set(labels))
        if not drop:
            return self
        axes = tuple(self.labels.index(l) for l in drop)
        keep = tuple(l for l in self.labels if l not in set(drop))
        return LabeledAmplitude(keep, self.data.sum(axis=axes))

    def slice_at(self, values: Mapping[int, int | slice]) -> "LabeledAmplitude":
        """Fix the given labels at the given states, removing their axes.

        A label given a ``slice`` keeps its axis, cut to that range of
        states."""
        if not values:
            return self
        idx = tuple(values.get(l, slice(None)) for l in self.labels)
        keep = tuple(l for l, i in zip(self.labels, idx) if isinstance(i, slice))
        return LabeledAmplitude(keep, self.data[idx])

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.data, self.data).real)

    def scaled(self, factor: complex) -> "LabeledAmplitude":
        return LabeledAmplitude(self.labels, self.data * factor)

    def item(self) -> complex:
        return complex(self.data.reshape(()).item())

    def __repr__(self) -> str:
        return f"LabeledAmplitude(labels={self.labels}, shape={self.data.shape})"


def labeled(labels: Iterable[int], data) -> LabeledAmplitude:
    """Build a LabeledAmplitude, sorting axes into ascending label order.

    Labels are integers; a bool, float or string label raises ValueError
    rather than being truncated, and so does a non-finite entry."""
    labels = tuple(_as_int(l, "label") for l in labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    arr = np.asarray(data, dtype=np.complex128)
    if not np.isfinite(arr).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValueError(f"data has a non-finite entry {arr[at]} at {at}")
    if arr.ndim != len(labels):
        raise ValueError(
            f"{len(labels)} labels for a rank-{arr.ndim} tensor"
        )
    order = tuple(sorted(range(len(labels)), key=lambda k: labels[k]))
    if order != tuple(range(len(labels))):
        arr = np.transpose(arr, order)
        labels = tuple(labels[k] for k in order)
    return LabeledAmplitude(labels, arr)


def scalar(value: complex) -> LabeledAmplitude:
    return LabeledAmplitude((), np.asarray(value, dtype=np.complex128))


def multiply(a: LabeledAmplitude, b: LabeledAmplitude) -> LabeledAmplitude:
    """Entrywise product aligning shared labels; result over the label union."""
    dims = dict(zip(a.labels, a.data.shape))
    for l, d in zip(b.labels, b.data.shape):
        if dims.setdefault(l, d) != d:
            raise ValueError(
                f"label {l} has cardinality {dims[l]} on one side and {d} on the other"
            )
    out_labels = tuple(sorted(dims))

    def expand(t: LabeledAmplitude) -> np.ndarray:
        mine = dict(zip(t.labels, t.data.shape))
        return t.data.reshape([mine.get(l, 1) for l in out_labels])

    return LabeledAmplitude(out_labels, expand(a) * expand(b))


def fold(amp: LabeledAmplitude, carrier: int) -> LabeledAmplitude:
    """The ket m'(c) = ||m(c, .)||_2 over the carrier label alone.

    Every other axis is squared and summed away, so m' is real,
    non-negative and has the same 2-norm as ``amp``. Wherever ``amp``
    only ever meets other tensors in entrywise products over disjoint
    axes and is finally read out as a squared norm, m' gives the same
    result.
    """
    axis = amp.labels.index(carrier)
    drop = tuple(k for k in range(len(amp.labels)) if k != axis)
    squared = (np.abs(amp.data) ** 2).sum(axis=drop)
    return LabeledAmplitude((carrier,), np.sqrt(squared).astype(np.complex128))


def product(parts: Iterable[LabeledAmplitude]) -> LabeledAmplitude:
    """The parts multiplied in order from the first; the scalar 1 for none."""
    out, *rest = [*parts] or [scalar(1.0)]
    for p in rest:
        out = multiply(out, p)
    return out


def marginalize(amp: LabeledAmplitude, over: Iterable[int]) -> LabeledAmplitude:
    """Complex entrywise sum over the given labels.

    The amplitude analogue of marginalizing a probability table: the
    dropped axes are summed, not squared. A label that is not an
    integer raises ValueError, as in :func:`labeled`.
    """
    over = tuple(sorted({_as_int(l, "label") for l in over}))
    unknown = set(over) - set(amp.labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    return amp.sum_over(over)
