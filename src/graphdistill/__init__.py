"""Graph-classification knowledge distillation.

Message-passing teachers (GIN, GCN) are trained on graph datasets and
distilled into fast MLP / graph-augmented-MLP students through losses at
three structural granularities (whole graph, clusters, random-walk
neighborhoods), on top of a small self-contained reverse-mode autodiff
engine. A dynamic-graph benchmark exercises incremental student inference
under node removal/insertion.
"""

from .data import Dataset, FoldSplit, Graph, degree_onehot_features, load_tudataset, \
    save_tudataset, stratified_kfold
from .losses import DistillWeights
from .models import GcnConfig, GinConfig, StudentConfig
from .structure import StructCache, build_struct_caches, ga_mlp_aggregate, \
    laplacian_pe, louvain_cluster, sample_walks
from .training import RunConfig, cache_teacher, distill_student, sweep, train_teacher

__version__ = "0.1.0"

__all__ = [
    "Dataset", "FoldSplit", "Graph", "degree_onehot_features", "load_tudataset",
    "save_tudataset", "stratified_kfold", "DistillWeights", "GcnConfig", "GinConfig",
    "StudentConfig", "StructCache", "build_struct_caches", "ga_mlp_aggregate",
    "laplacian_pe", "louvain_cluster", "sample_walks", "RunConfig", "cache_teacher",
    "distill_student", "sweep", "train_teacher", "__version__",
]
