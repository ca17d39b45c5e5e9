"""Graph substrate: CSR storage, I/O, generators, and dataset surrogates.

The paper evaluates on six SNAP networks (Table I).  Since those cannot be
downloaded here, :mod:`repro.graph.datasets` provides deterministic
synthetic surrogates whose degree-distribution *shape* matches the
properties the paper's results depend on (power law, average degree,
relative ordering of sizes).
"""

from repro.graph.csr import CSRGraph, graph_digest
from repro.graph.build import from_edges, from_edge_array
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.generators import (
    chung_lu,
    rmat,
    barabasi_albert,
    planted_partition,
    ring_of_cliques,
    powerlaw_degree_sequence,
)
from repro.graph.lfr import lfr_graph, LFRParams
from repro.graph.metrics import (
    degree_histogram,
    degree_cdf,
    cam_coverage,
    powerlaw_alpha_mle,
)
from repro.graph.datasets import DATASETS, load_dataset, DatasetSpec
from repro.graph.interop import from_networkx, to_networkx

__all__ = [
    "CSRGraph",
    "graph_digest",
    "from_edges",
    "from_edge_array",
    "read_edge_list",
    "write_edge_list",
    "chung_lu",
    "rmat",
    "barabasi_albert",
    "planted_partition",
    "ring_of_cliques",
    "powerlaw_degree_sequence",
    "lfr_graph",
    "LFRParams",
    "degree_histogram",
    "degree_cdf",
    "cam_coverage",
    "powerlaw_alpha_mle",
    "DATASETS",
    "load_dataset",
    "DatasetSpec",
    "from_networkx",
    "to_networkx",
]
