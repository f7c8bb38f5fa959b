"""Distillation objective: ground truth, soft logits, and the three
structural terms (whole-graph, inter-cluster, path consistency).

Every term takes a disjoint-union batch and is averaged per graph, so
removing a term never changes the value of the others; a one-graph batch
gives the per-graph value.

Teacher-side quantities enter every loss as plain numpy arrays, so no
gradient ever flows into the teacher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, IntegrityError

NORM_EPS = 1e-8


@dataclass
class DistillWeights:
    """Trade-off weights of the combined objective.

    The ground-truth term always has weight 1; ``soft`` defaults to 1 and is
    zeroable to recover a plain (non-distilled) student.
    """

    lam: float = 0.1
    mu: float = 0.1
    eta: float = 1e-4
    soft: float = 1.0

    def __post_init__(self):
        for name in ("lam", "mu", "eta", "soft"):
            if getattr(self, name) < 0:
                raise ConfigError(f"weight {name} must be >= 0")


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norm = np.sqrt((m * m).sum(axis=-1, keepdims=True))
    return m / np.maximum(norm, NORM_EPS)


def _log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def kernel_matrix(cluster_reps: Tensor) -> Tensor:
    """Pairwise cosine similarities between cluster representations."""
    normed = ad.l2_normalize(cluster_reps, dim=-1, eps=NORM_EPS)
    return ad.matmul(normed, ad.transpose(normed))


def kernel_matrix_np(cluster_reps: np.ndarray) -> np.ndarray:
    normed = _unit_rows(np.asarray(cluster_reps, dtype=np.float64))
    return normed @ normed.T


def total_loss(parts: dict[str, Tensor], weights: DistillWeights) -> Tensor:
    """Weighted combination: gt + soft*sl + lam*graph + mu*cluster + eta*path."""
    for key in ("gt", "sl", "graph", "cluster", "path"):
        if key not in parts:
            raise ConfigError(f"missing loss part {key!r}")
    out = parts["gt"]
    out = ad.add(out, ad.mul(parts["sl"], weights.soft))
    out = ad.add(out, ad.mul(parts["graph"], weights.lam))
    out = ad.add(out, ad.mul(parts["cluster"], weights.mu))
    out = ad.add(out, ad.mul(parts["path"], weights.eta))
    return out


def batch_ground_truth(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy of the true class, -log_softmax(logits)[label]."""
    onehot = np.zeros(logits.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    picked = ad.tensor_sum(ad.mul(ad.log_softmax(logits, dim=1), ad.constant(onehot)))
    return ad.mul(picked, -1.0 / labels.size)


def batch_soft_logits(student_logits: Tensor, teacher_logits: np.ndarray,
                      temperature: float = 1.0) -> Tensor:
    """KL(teacher softmax || student softmax); scaled by T^2 when T != 1."""
    logp_t = _log_softmax_np(np.asarray(teacher_logits) / temperature, axis=1)
    p_t = np.exp(logp_t)
    n = p_t.shape[0]
    logq = ad.log_softmax(ad.mul(student_logits, 1.0 / temperature), dim=1)
    cross = ad.mul(ad.tensor_sum(ad.mul(logq, ad.constant(p_t))), -1.0 / n)
    kl = ad.add(cross, float((p_t * logp_t).sum() / n))
    return kl if temperature == 1.0 else ad.mul(kl, temperature * temperature)


def batch_whole_graph(h_student: Tensor, h_teacher: np.ndarray) -> Tensor:
    """Squared L2 distance between unit-normalized graph embeddings."""
    target = _unit_rows(np.asarray(h_teacher, dtype=np.float64))
    normed = ad.l2_normalize(h_student, dim=-1, eps=NORM_EPS)
    sq = ad.frobenius_sq(ad.sub(normed, ad.constant(target)))
    return ad.mul(sq, 1.0 / target.shape[0])


def block_kernel_target(teacher_clusters: np.ndarray,
                        cluster_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal teacher kernel and its 0/1 mask for a batch."""
    c = teacher_clusters.shape[0]
    mask = np.zeros((c, c))
    target = np.zeros((c, c))
    for lo, hi in zip(cluster_offsets[:-1], cluster_offsets[1:]):
        mask[lo:hi, lo:hi] = 1.0
        target[lo:hi, lo:hi] = kernel_matrix_np(teacher_clusters[lo:hi])
    return target, mask


def batch_inter_cluster(student_clusters: Tensor, teacher_clusters: np.ndarray,
                        cluster_offsets: np.ndarray, num_graphs: int) -> Tensor:
    """Squared Frobenius distance between each graph's student and teacher
    cluster kernels; clusters of different graphs are never compared."""
    if student_clusters.shape != teacher_clusters.shape:
        raise IntegrityError(
            f"cluster embedding shapes differ: student {student_clusters.shape}, "
            f"teacher {teacher_clusters.shape}"
        )
    target, mask = block_kernel_target(teacher_clusters, cluster_offsets)
    kernel = kernel_matrix(student_clusters)
    diff = ad.mul(ad.sub(kernel, ad.constant(target)), ad.constant(mask))
    return ad.mul(ad.frobenius_sq(diff), 1.0 / num_graphs)


def batch_path_consistency(H_student: Tensor, H_teacher: np.ndarray,
                           walk_matrix: np.ndarray, walk_weights: np.ndarray,
                           include_start: bool = True) -> Tensor:
    """Weighted sum of per-walk KLs over same-length walks (global node ids).

    ``walk_weights`` carries the per-graph averaging: 1 / (walks-in-graph *
    graphs-in-batch) for each row of ``walk_matrix``.
    """
    if walk_matrix.size == 0:
        return ad.constant(np.asarray(0.0))
    start = 0 if include_start else 1
    positions = range(start, walk_matrix.shape[1])
    anchors = ad.gather_rows(H_student, walk_matrix[:, 0])
    width = H_student.shape[1]
    ones = ad.constant(np.ones((width, 1)))
    cols = [
        ad.matmul(ad.mul(ad.gather_rows(H_student, walk_matrix[:, t]), anchors), ones)
        for t in positions
    ]
    logq = ad.log_softmax(ad.concat(cols, dim=1), dim=1)

    anchor_t = H_teacher[walk_matrix[:, 0]]
    scores_t = np.stack(
        [(H_teacher[walk_matrix[:, t]] * anchor_t).sum(axis=1) for t in positions], axis=1
    )
    logp_t = _log_softmax_np(scores_t, axis=1)
    p_t = np.exp(logp_t)

    kl_terms = ad.mul(ad.sub(ad.constant(logp_t), logq), ad.constant(p_t))
    per_walk = ad.matmul(kl_terms, ad.constant(np.ones((len(cols), 1))))
    return ad.tensor_sum(ad.mul(per_walk, ad.constant(walk_weights[:, None])))
