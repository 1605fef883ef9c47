"""DSG: Data-guided Schema and query Generation (paper §3)."""

from repro.dsg.bitmap import Bitmap, JoinBitmapIndex, wah_decode, wah_encode
from repro.dsg.datasets import DATASETS, DatasetSpec, build_dataset
from repro.dsg.fd import FDDiscovery, FunctionalDependency, discover_fds, transitive_closure
from repro.dsg.ground_truth import GroundTruth, GroundTruthOracle
from repro.dsg.hintgen import HintGenerator, TransformedQuery
from repro.dsg.noise import NoiseEvent, NoiseInjector, NoiseReport, inject_noise
from repro.dsg.normalization import (
    DecomposedTable,
    NormalizedDatabase,
    SchemaNormalizer,
    attribute_closure,
    candidate_key,
    minimal_cover,
    normalize,
)
from repro.dsg.pipeline import DSG, DSGConfig
from repro.dsg.query_gen import (
    CandidateExtension,
    GenerationConfig,
    RandomWalkQueryGenerator,
)
from repro.dsg.rowid_map import RowIDMap
from repro.dsg.schema_graph import JoinEdge, SchemaGraph
from repro.dsg.widetable import WideTable

__all__ = [
    "Bitmap",
    "CandidateExtension",
    "DATASETS",
    "DSG",
    "DSGConfig",
    "DatasetSpec",
    "DecomposedTable",
    "FDDiscovery",
    "FunctionalDependency",
    "GenerationConfig",
    "GroundTruth",
    "GroundTruthOracle",
    "HintGenerator",
    "JoinBitmapIndex",
    "JoinEdge",
    "NoiseEvent",
    "NoiseInjector",
    "NoiseReport",
    "NormalizedDatabase",
    "RandomWalkQueryGenerator",
    "RowIDMap",
    "SchemaGraph",
    "SchemaNormalizer",
    "TransformedQuery",
    "WideTable",
    "attribute_closure",
    "build_dataset",
    "candidate_key",
    "discover_fds",
    "inject_noise",
    "minimal_cover",
    "normalize",
    "transitive_closure",
    "wah_decode",
    "wah_encode",
]
