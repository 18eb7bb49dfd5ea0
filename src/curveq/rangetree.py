"""Static search structures over numeric key vectors.

* :class:`DominanceIndex` -- the flat, block-pruned index behind every
  exact query in curveq.  Rows are sorted by a caller-chosen key
  (a Morton code in every structure) and grouped into blocks with
  componentwise minima.  One best-first search answers the min-max
  queries: blocks are visited in increasing order of a lower bound
  derived from their minima, and the search stops once no unvisited
  block can beat the best distance found (Roussopoulos, Kelley &
  Vincent, SIGMOD 1995; Hjaltason & Samet, TODS 1999).  Bounds are exact
  because ``x -> (x - s) / scale`` rounds monotonically.

* :class:`MultiLevelTree` -- the textbook nested structure: one balanced
  search tree per key dimension, where every node owns an associated
  next-level tree over its canonical subset.  A query decomposes each
  level's interval condition into O(log N) canonical nodes.  Storage
  grows by roughly a log factor per level, so this class is reserved for
  small inputs and for validating the scalable index against the
  canonical-subset definition.

:class:`MultiLevelSegmentTree` is the nested interval-stabbing variant
with a min aggregate at the bottom level.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DominanceIndex",
    "MultiLevelTree",
    "MultiLevelSegmentTree",
]


# ---------------------------------------------------------------------------
# block-pruned dominance index
# ---------------------------------------------------------------------------

class DominanceIndex:
    """Exact min-max queries over N rows of D-dimensional values v.

    A query supplies R shift rows s_r, optional per-column scales and
    optional per-row constants c_r.  The distance of stored row v under
    shift row r is

        max(c_r, max_k (v[k] - s_r[k]) / scale[k])

    and :meth:`nearest` minimizes it over all (r, v) pairs.  Every
    difference is evaluated exactly as written, which keeps results
    bit-identical to brute-force scans computing the same differences.
    Scales must be powers of two (1 or 2 here) so the quotients are exact.
    """

    def __init__(self, values, sort_keys, tags=None, block_size: Optional[int] = None):
        """``sort_keys`` sets the row order.

        A space-filling-curve key makes the per-block minima jointly
        selective across all dimensions.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n, d = values.shape
        if n == 0:
            raise ValueError("DominanceIndex requires at least one row")
        order = np.argsort(np.asarray(sort_keys), kind="stable")
        self.values = np.ascontiguousarray(values[order])
        tags = np.arange(n) if tags is None else np.asarray(tags)
        self.tags = tags[order]
        b = block_size or max(8, math.isqrt(n))
        self._starts = np.arange(0, n, b)
        self._bmins = np.minimum.reduceat(self.values, self._starts, axis=0)
        self._n = n
        self._b = b

    def __len__(self) -> int:
        return self._n

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def describe(self) -> dict:
        """Rows, dims, blocks, block size and bytes held in arrays."""
        arrays = (self.values, self.tags, self._starts, self._bmins)
        return {
            "rows": self._n,
            "dims": self.dims,
            "blocks": len(self._starts),
            "block_size": self._b,
            "nbytes": sum(a.nbytes for a in arrays),
        }

    # -- min-max queries ------------------------------------------------------

    def nearest(self, shift_rows, scales=None, row_consts=None, stop=None):
        """``(distance, tag)`` of the minimizing pair; ties to the smallest tag.

        Per (shift row, block) the lower bound is the distance of the
        block's componentwise minima.  Blocks are visited in increasing
        order of their smallest bound, and inside a block only the shift
        rows whose bound does not exceed the best distance so far are
        evaluated.  The search ends at the first block whose bound is
        above the best distance, so blocks that tie it are still visited.

        With ``stop`` the search returns the first pair found at distance
        at most ``stop`` instead, or None when there is none.
        """
        s = np.atleast_2d(np.asarray(shift_rows, dtype=float))
        scale = None if scales is None else np.asarray(scales, dtype=float)
        consts = None if row_consts is None else np.asarray(row_consts, dtype=float)

        def dist(v, rows):
            diff = v[None, :, :] - s[rows, None, :]
            if scale is not None:
                diff /= scale
            d = diff.max(axis=2)
            return d if consts is None else np.maximum(d, consts[rows, None])

        bounds = dist(self._bmins, slice(None))  # (R, blocks)
        block_lb = bounds.min(axis=0)
        best = math.inf if stop is None else float(stop)
        best_tag = None
        for bi in np.argsort(block_lb, kind="stable").tolist():
            if block_lb[bi] > best:
                break
            rows = np.flatnonzero(bounds[:, bi] <= best)
            lo = bi * self._b
            d = dist(self.values[lo:lo + self._b], rows).min(axis=0)
            m = d.min()
            if m > best:
                continue
            if stop is not None:
                return float(m), self.tags[lo + int(np.argmin(d))]
            tag = self.tags[lo:lo + self._b][d == m].min()
            if best_tag is None or m < best or tag < best_tag:
                best, best_tag = float(m), tag
        return None if best_tag is None else (best, best_tag)

    def decide(self, shift_rows, d: float, scales=None):
        """Tag of some row at distance at most d (see :meth:`nearest`), else None."""
        hit = self.nearest(shift_rows, scales, stop=d)
        return None if hit is None else hit[1]

    # -- threshold-form queries -----------------------------------------------

    def _block_rows(self, bi: int) -> slice:
        lo = self._starts[bi]
        return slice(lo, min(lo + self._b, self._n))

    def collect_thresholds(self, thresholds) -> np.ndarray:
        """Tags of all rows satisfying v <= thresholds componentwise."""
        thresholds = np.asarray(thresholds, dtype=float)
        out = []
        for bi in np.nonzero((self._bmins <= thresholds).all(axis=1))[0]:
            rows = self._block_rows(bi)
            ok = (self.values[rows] <= thresholds).all(axis=1)
            if ok.any():
                out.append(self.tags[rows][ok])
        if not out:
            return np.empty(0, dtype=self.tags.dtype)
        return np.sort(np.concatenate(out))


# ---------------------------------------------------------------------------
# reference nested structures
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("lo", "hi", "left", "right", "assoc")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self.left = None
        self.right = None
        self.assoc = None


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left):
        self.left = left

    def spend(self, n):
        self.left -= n
        if self.left < 0:
            raise MemoryError(
                "MultiLevelTree entry guard exceeded; this reference structure "
                "is intended for small inputs only"
            )


class _LevelTree:
    """One level: items sorted by this level's key, nodes over array ranges."""

    def __init__(self, values, idx, level, budget):
        self.level = level
        self.values = values
        key = values[idx, level]
        order = np.argsort(key, kind="stable")
        self.idx = idx[order]
        self.keys = key[order]
        budget.spend(len(idx))
        self.last = level == values.shape[1] - 1
        self.root = self._build(0, len(self.idx), budget)

    def _build(self, lo, hi, budget):
        node = _Node(lo, hi)
        if not self.last:
            node.assoc = _LevelTree(self.values, self.idx[lo:hi], self.level + 1, budget)
        if hi - lo > 1:
            mid = (lo + hi) // 2
            node.left = self._build(lo, mid, budget)
            node.right = self._build(mid, hi, budget)
        return node

    def canonical_nodes(self, lo_bound, hi_bound):
        """Maximal subtrees whose keys all lie in [lo_bound, hi_bound]."""
        out = []

        def visit(node):
            if node is None or node.lo >= node.hi:
                return
            if self.keys[node.lo] > hi_bound or self.keys[node.hi - 1] < lo_bound:
                return
            if self.keys[node.lo] >= lo_bound and self.keys[node.hi - 1] <= hi_bound:
                out.append(node)
                return
            visit(node.left)
            visit(node.right)

        visit(self.root)
        return out


class MultiLevelTree:
    """Reference nested search tree over canonical subsets.

    ``values`` is an (N, D) key table; a query supplies one closed
    interval ``(lo, hi)`` per dimension and receives the tags of all rows
    inside the box.  One-sided conditions use +/-inf on the open side.
    Every node's canonical subset is the union of its children's, every
    row appears in O(log N) canonical subsets per level, and each level's
    interval decomposes into O(log N) canonical nodes, which the tests
    verify directly.  The entry guard refuses builds whose nested storage
    would explode; use :class:`DominanceIndex` beyond that.
    """

    def __init__(self, values, tags=None, entry_guard: int = 2_000_000):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n = values.shape[0]
        if n == 0:
            raise ValueError("MultiLevelTree requires at least one row")
        self.tags = np.arange(n) if tags is None else np.asarray(tags)
        self._tree = _LevelTree(values, np.arange(n), 0, _Budget(entry_guard))

    def _gather(self, tree, bounds, out):
        lo, hi = bounds[0]
        for node in tree.canonical_nodes(lo, hi):
            if tree.last:
                out.append(tree.idx[node.lo:node.hi])
            else:
                self._gather(node.assoc, bounds[1:], out)

    def query_tags(self, bounds) -> np.ndarray:
        """Sorted tags of all rows satisfying every per-level interval."""
        out: list[np.ndarray] = []
        self._gather(self._tree, list(bounds), out)
        if not out:
            return np.empty(0, dtype=self.tags.dtype)
        return np.sort(self.tags[np.concatenate(out)])

    def query_any(self, bounds):
        hits = self.query_tags(bounds)
        return hits[0] if hits.size else None

    def level1_canonical_sets(self, lo, hi) -> list[np.ndarray]:
        """Row tags per canonical node of the first level (for validation)."""
        t = self._tree
        return [self.tags[t.idx[n.lo:n.hi]] for n in t.canonical_nodes(lo, hi)]


class _SegLevel:
    """Segment tree over one level's closed intervals.

    Elementary slots alternate endpoint/gap so closed-interval stabbing is
    exact.  Every item is stored at O(log) covering nodes; each node owns
    either the next level over its stored items or, at the last level,
    the (min score, tag at the min) aggregate.
    """

    def __init__(self, intervals, scores, tags, items, level, nlevels, budget):
        iv = intervals[level][items]
        self.level = level
        self.last = level == nlevels - 1
        self.ends = np.unique(iv)
        nslots = 2 * len(self.ends) - 1
        budget.spend(len(items))
        buckets: dict[tuple[int, int], list[int]] = {}

        def cover(lo_s, hi_s, node_lo, node_hi, item):
            if hi_s < node_lo or lo_s > node_hi:
                return
            if lo_s <= node_lo and node_hi <= hi_s:
                buckets.setdefault((node_lo, node_hi), []).append(item)
                return
            mid = (node_lo + node_hi) // 2
            cover(lo_s, hi_s, node_lo, mid, item)
            cover(lo_s, hi_s, mid + 1, node_hi, item)

        for it in items:
            lo, hi = intervals[level][it]
            lo_s = 2 * int(np.searchsorted(self.ends, lo))
            hi_s = 2 * int(np.searchsorted(self.ends, hi))
            cover(lo_s, hi_s, 0, nslots - 1, it)

        self.nslots = nslots
        self.children: dict[tuple[int, int], object] = {}
        self.node_items = {k: np.asarray(v) for k, v in buckets.items()}
        for key, stored in self.node_items.items():
            if self.last:
                best = int(np.argmin(scores[stored]))
                self.children[key] = (float(scores[stored][best]), tags[stored][best])
            else:
                self.children[key] = _SegLevel(
                    intervals, scores, tags, stored, level + 1, nlevels, budget
                )

    def _slot(self, x) -> Optional[int]:
        k = int(np.searchsorted(self.ends, x))
        if k < len(self.ends) and self.ends[k] == x:
            return 2 * k
        if 0 < k < len(self.ends):
            return 2 * k - 1
        return None  # outside every interval

    def path_nodes(self, x):
        s = self._slot(x)
        if s is None:
            return
        lo, hi = 0, self.nslots - 1
        while True:
            node = self.children.get((lo, hi))
            if node is not None:
                yield node
            if lo == hi:
                return
            mid = (lo + hi) // 2
            if s <= mid:
                hi = mid
            else:
                lo = mid + 1


class MultiLevelSegmentTree:
    """Nested segment trees: conjunctive interval stabbing with a min aggregate.

    ``intervals`` is a sequence of (N, 2) closed-interval arrays, one per
    level; a query supplies one stabbing coordinate per level and receives
    the minimum score (with its tag) over items stabbed at every level.
    """

    def __init__(self, intervals: Sequence, scores, tags=None, entry_guard: int = 5_000_000):
        intervals = [np.atleast_2d(np.asarray(iv, dtype=float)) for iv in intervals]
        n = intervals[0].shape[0]
        if n == 0:
            raise ValueError("MultiLevelSegmentTree requires at least one item")
        scores = np.asarray(scores, dtype=float)
        tags = np.arange(n) if tags is None else np.asarray(tags)
        self._root = _SegLevel(
            intervals, scores, tags, np.arange(n), 0, len(intervals), _Budget(entry_guard)
        )

    def query_min(self, points):
        points = list(points)

        def walk(level_tree, pts):
            best = None
            for node in level_tree.path_nodes(pts[0]):
                if isinstance(node, tuple):
                    cand = node
                else:
                    cand = walk(node, pts[1:])
                if cand is not None and (best is None or cand[0] < best[0]):
                    best = cand
            return best

        return walk(self._root, points)

    def bottom_nodes(self):
        """Yield (stored item indices, (min score, tag)) of every bottom node."""

        def walk(level_tree):
            for key, stored in level_tree.node_items.items():
                child = level_tree.children[key]
                if level_tree.last:
                    yield stored, child
                else:
                    yield from walk(child)

        yield from walk(self._root)
