"""Reproducible surrogate datasets for the paper's three networks.

The paper evaluates on Hep and Phy (academic collaboration networks from a
now-dead Microsoft Research URL) and wiki-Talk (SNAP).  With no network
access, this module generates *seeded surrogates* matched on node count,
edge count and degree-tail shape — see DESIGN.md §3 for the substitution
argument.  Each surrogate is deterministic: ``hep()`` always returns the
same graph, so experiments are reproducible across sessions and machines.

The ``scale`` parameter shrinks a dataset proportionally (same average
degree), which keeps test and benchmark runtimes laptop-friendly; the full
paper-scale graphs are available with ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable

from repro.config import RunConfig
from repro.errors import GraphError
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import community_powerlaw, copying_model
from repro.graphs.loaders import relabel, stream_edge_array
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_fraction

#: Accepted wiki-Talk filenames inside ``REPRO_DATA_DIR``, checked in order.
_WIKI_FILENAMES = (
    "wiki-Talk.txt",
    "wiki-Talk.txt.gz",
    "WikiTalk.txt",
    "WikiTalk.txt.gz",
)


def real_wiki_path() -> Path | None:
    """The real SNAP wiki-Talk edge list under ``REPRO_DATA_DIR``, if any."""
    root = RunConfig.from_env().data_dir
    if root is None:
        return None
    for filename in _WIKI_FILENAMES:
        candidate = root / filename
        if candidate.is_file():
            return candidate
    return None


def _load_real_wiki(path: Path) -> DiGraph:
    """Stream-parse the real wiki-Talk edge list into a :class:`DiGraph`."""
    edges = stream_edge_array(path)
    labels, src, dst = relabel(edges[:, 0], edges[:, 1])
    del edges
    return DiGraph.from_arrays(labels.size, src, dst)


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one of the paper's networks and its surrogate recipe."""

    name: str
    paper_nodes: int
    paper_edges: int
    directed: bool
    description: str
    default_scale: float
    build: Callable[[float, RandomSource], DiGraph]

    def load(self, scale: float | None = None, rng: RandomSource = None) -> DiGraph:
        """Build the surrogate at *scale* (defaults to :attr:`default_scale`)."""
        if scale is None:
            scale = self.default_scale
        check_fraction(scale, "scale")
        return self.build(scale, rng)


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def _build_hep(scale: float, rng: RandomSource) -> DiGraph:
    generator = as_rng(15233 if rng is None else rng)
    n = _scaled(15_233, scale, 200)
    m = _scaled(58_891, scale, 400)
    # Collaboration networks are heavily clustered: community-structured
    # power-law graph (communities of ~50 authors, 8% cross-community
    # edges) rather than a bare configuration model.
    return community_powerlaw(n, m, mixing=0.08, exponent=2.3, rng=generator)


def _build_phy(scale: float, rng: RandomSource) -> DiGraph:
    generator = as_rng(37154 if rng is None else rng)
    n = _scaled(37_154, scale, 200)
    m = _scaled(231_584, scale, 800)
    return community_powerlaw(n, m, mixing=0.08, exponent=2.2, rng=generator)


def _build_wiki(scale: float, rng: RandomSource) -> DiGraph:
    # At full scale, prefer the real SNAP edge list when the user has
    # downloaded it (REPRO_DATA_DIR); partial scales always use the seeded
    # surrogate — a real graph cannot be shrunk reproducibly.
    if scale >= 1.0:
        real = real_wiki_path()
        if real is not None:
            return _load_real_wiki(real)
    generator = as_rng(2394385 if rng is None else rng)
    n = _scaled(2_394_385, scale, 500)
    # The copying model with 2 out-entries per node reproduces wiki-Talk's
    # extreme in-degree skew.  Duplicate copies collapse, so the surrogate
    # has 1.61 arcs per node (wiki-Talk: 2.1): 192.6k arcs at scale 0.05,
    # 3.85M at scale 1.0.
    return copying_model(n, out_edges=2, copy_probability=0.75, rng=generator)


DATASETS: dict[str, DatasetSpec] = {
    "hep": DatasetSpec(
        name="hep",
        paper_nodes=15_233,
        paper_edges=58_891,
        directed=False,
        description=(
            "Surrogate for the Hep (arXiv high-energy physics) collaboration "
            "network used by Kempe et al. and Chen et al.; power-law "
            "configuration model matched on n, m."
        ),
        default_scale=1.0,
        build=_build_hep,
    ),
    "phy": DatasetSpec(
        name="phy",
        paper_nodes=37_154,
        paper_edges=231_584,
        directed=False,
        description=(
            "Surrogate for the Phy (arXiv physics) collaboration network; "
            "power-law configuration model matched on n, m."
        ),
        default_scale=1.0,
        build=_build_phy,
    ),
    "wiki": DatasetSpec(
        name="wiki",
        paper_nodes=2_394_385,
        paper_edges=5_021_410,
        directed=True,
        description=(
            "Surrogate for SNAP wiki-Talk; Kleinberg copying model with its "
            "heavy in-degree tail and 1.61 arcs per node (wiki-Talk: 2.1).  "
            "Default scale 0.05 (~120k nodes).  At scale 1.0 the real SNAP "
            "edge list is loaded instead when REPRO_DATA_DIR holds "
            "wiki-Talk.txt[.gz]."
        ),
        default_scale=0.05,
        build=_build_wiki,
    ),
}


def get_dataset(name: str, scale: float | None = None, rng: RandomSource = None) -> DiGraph:
    """Load a surrogate dataset by name (``hep``, ``phy``, or ``wiki``)."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise GraphError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
    return spec.load(scale=scale, rng=rng)


def hep(scale: float = 1.0, rng: RandomSource = None) -> DiGraph:
    """The Hep collaboration surrogate (15,233 nodes / 58,891 edges at scale 1)."""
    return DATASETS["hep"].load(scale=scale, rng=rng)


def phy(scale: float = 1.0, rng: RandomSource = None) -> DiGraph:
    """The Phy collaboration surrogate (37,154 nodes / 231,584 edges at scale 1)."""
    return DATASETS["phy"].load(scale=scale, rng=rng)


def wiki(scale: float | None = None, rng: RandomSource = None) -> DiGraph:
    """The wiki-Talk surrogate (default scale 0.05; paper scale is 2.39M nodes).

    At ``scale=1.0`` the real SNAP edge list is loaded when
    ``REPRO_DATA_DIR`` contains ``wiki-Talk.txt`` (optionally gzipped);
    otherwise the seeded synthetic surrogate is generated.
    """
    return DATASETS["wiki"].load(scale=scale, rng=rng)
