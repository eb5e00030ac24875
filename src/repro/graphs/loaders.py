"""Edge-list I/O in the SNAP text format.

The paper's public dataset (wiki-Talk) and the Chen et al. graph bundle are
distributed as whitespace-separated edge lists with ``#`` comment lines —
exactly the format read and written here.  Node labels need not be dense
integers: they are relabelled to ``0..n-1`` on load and the mapping is
returned so results can be reported in terms of the original ids.
"""

from __future__ import annotations

import gzip
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.digraph import DiGraph

PathLike = str | Path


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _parse_lines(
    source: Path, lines: list[str], first_lineno: int, comment: str
) -> np.ndarray:
    """The ``(edges, 2)`` labels of *lines*, parsed one line at a time.

    The slow path of :func:`stream_edge_array`, run only on a chunk the C
    reader rejects: it names the offending line as ``path:lineno``, or
    parses the labels ``int()`` reads but the C reader does not
    (``1_000``).  Like the C reader it drops everything from *comment* to
    the end of a line, so a line parses the same on either path.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.split(comment, 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{source}:{lineno}: expected 'src dst', got {line!r}"
            )
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(
                f"{source}:{lineno}: non-integer node label in {line!r}"
            ) from exc
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def stream_edge_array(
    path: PathLike,
    comment: str = "#",
    chunk_lines: int = 1 << 20,
) -> np.ndarray:
    """Parse a SNAP-style edge list into one ``(edges, 2)`` int64 array.

    The file (optionally ``.gz``) is consumed *chunk_lines* lines at a
    time, each chunk tokenized by numpy's C reader (``np.loadtxt``) — peak
    Python-object overhead stays bounded by the chunk size no matter how
    many edges the file holds, which is what makes 5M-edge ingestion
    (:meth:`repro.graphs.store.GraphStore.ingest_edge_list`) tractable.
    Only a chunk the C reader rejects is re-scanned line by line, so a
    malformed line raises :class:`GraphFormatError` naming
    ``path:lineno``.  Labels are returned raw (not relabelled).
    """
    source = Path(path)
    chunks: list[np.ndarray] = []
    first_lineno = 1
    with _open_text(source, "r") as handle:
        while True:
            lines = list(islice(handle, chunk_lines))
            if not lines:
                break
            try:
                with warnings.catch_warnings():
                    # A chunk of comments and blank lines is no data, not
                    # a problem.
                    warnings.filterwarnings(
                        "ignore",
                        message="loadtxt: input contained no data",
                        category=UserWarning,
                    )
                    # numpy 1.x truncates a float label ('0.5', '1e3') to
                    # an int and only warns; reject the chunk instead.
                    warnings.simplefilter("error", DeprecationWarning)
                    chunk = np.loadtxt(
                        lines,
                        dtype=np.int64,
                        comments=comment,
                        usecols=(0, 1),
                        ndmin=2,
                    )
            except (ValueError, DeprecationWarning):
                chunk = _parse_lines(source, lines, first_lineno, comment)
            if chunk.size:
                chunks.append(chunk)
            first_lineno += len(lines)
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def relabel(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ids ``0..n-1`` for arbitrary integer node labels.

    Returns ``(labels, src_ids, dst_ids)``: *labels* holds the distinct
    labels in sorted order and each endpoint's dense id is its label's
    rank there (``labels[src_ids] == src``) — one sort and two
    ``np.searchsorted`` passes, no per-edge dict lookups.
    """
    labels = np.concatenate([src, dst])
    labels.sort()
    distinct = np.empty(labels.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(labels[1:], labels[:-1], out=distinct[1:])
    labels = labels[distinct]
    return labels, np.searchsorted(labels, src), np.searchsorted(labels, dst)


def load_edge_list(
    path: PathLike,
    directed: bool = True,
    comment: str = "#",
) -> tuple[DiGraph, dict[int, int]]:
    """Load a SNAP-style edge list.

    Parameters
    ----------
    path:
        Text file (optionally ``.gz``) with one ``src dst`` pair per line.
    directed:
        If False, every edge is added in both directions (collaboration
        networks).
    comment:
        Text from this prefix to the end of a line is skipped.

    Returns
    -------
    (graph, label_map):
        *label_map* maps original node labels to dense ids ``0..n-1``.

    Raises
    ------
    GraphFormatError
        On malformed lines (wrong column count, non-integer labels).
    """
    edges = stream_edge_array(path, comment=comment)
    labels, src, dst = relabel(edges[:, 0], edges[:, 1])
    label_map = {int(label): i for i, label in enumerate(labels)}

    if not directed:
        # Both orientations, forward block first — the same edge order
        # from_undirected produces, so stable edge ids (and therefore
        # fingerprints) are unchanged.
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    graph = DiGraph.from_arrays(len(labels), src, dst)
    return graph, label_map


def save_edge_list(graph: DiGraph, path: PathLike, header: str | None = None) -> None:
    """Write *graph* as a SNAP-style edge list (one ``src dst`` per line)."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# Nodes: {graph.num_nodes} Edges: {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")
