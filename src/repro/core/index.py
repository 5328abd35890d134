"""Layered-index primitives shared by builders and query engines.

A sequentially layered index is just an assignment of a positive layer
number to every tuple (Definition 1); these helpers convert a layer
array into the physical artefacts query processing needs (the layer-
sorted tuple order, per-layer offsets) and provide the soundness check
the whole library is built around: every monotone top-k answer must be
contained in the union of the first k layers.
"""

from __future__ import annotations

import numpy as np

from ..queries.ranking import LinearQuery

__all__ = [
    "layer_order",
    "layer_offsets",
    "tuples_in_top_layers",
    "cumulative_layer_sizes",
    "is_sound_for_query",
    "violating_tids",
]


def _validate_layers(layers: np.ndarray) -> np.ndarray:
    layers = np.asarray(layers)
    if layers.ndim != 1:
        raise ValueError("layers must be one-dimensional")
    if layers.size and layers.min() < 1:
        raise ValueError("layers are 1-based; found a value < 1")
    return layers.astype(np.int64)


def layer_order(layers: np.ndarray) -> np.ndarray:
    """Tids sorted by ``(layer, tid)`` — the sequential storage order.

    A stable sort of the layers alone keeps ties in tid order; on the
    narrowest unsigned key that holds the deepest layer, NumPy
    radix-sorts the common (at most 65535 layers) case.
    """
    layers = _validate_layers(layers)
    if layers.size == 0:
        return np.zeros(0, dtype=np.intp)
    keys = layers.astype(np.min_scalar_type(int(layers.max())))
    return np.argsort(keys, kind="stable")


def layer_offsets(layers: np.ndarray) -> np.ndarray:
    """``offsets[c]`` = number of tuples in layers ``<= c``.

    Index 0 is 0; the array has ``max_layer + 1`` entries, so
    ``offsets[k]`` (clamped) is the retrieval cost of a top-k query.
    """
    layers = _validate_layers(layers)
    if layers.size == 0:
        return np.zeros(1, dtype=np.int64)
    counts = np.bincount(layers, minlength=int(layers.max()) + 1)
    return np.cumsum(counts)


def cumulative_layer_sizes(layers: np.ndarray, up_to: int) -> int:
    """Number of tuples in layers ``1..up_to`` (clamping ``up_to``)."""
    offsets = layer_offsets(layers)
    c = min(max(int(up_to), 0), offsets.size - 1)
    return int(offsets[c])


def tuples_in_top_layers(layers: np.ndarray, up_to: int) -> np.ndarray:
    """Tids whose layer is ``<= up_to``."""
    layers = _validate_layers(layers)
    return np.flatnonzero(layers <= up_to)


def is_sound_for_query(
    points: np.ndarray, layers: np.ndarray, query: LinearQuery, k: int
) -> bool:
    """True when the query's exact top-k lies within the top k layers."""
    return violating_tids(points, layers, query, k).size == 0


def violating_tids(
    points: np.ndarray, layers: np.ndarray, query: LinearQuery, k: int
) -> np.ndarray:
    """Top-k tids (if any) sitting deeper than layer k.

    Empty result means the layering answers this query correctly; used
    extensively by the property-based tests.
    """
    layers = _validate_layers(layers)
    top = query.top_k(np.asarray(points, dtype=float), k)
    return top[layers[top] > k]
