"""Distillation objective: ground truth, soft logits, and the three
structural terms (whole-graph, inter-cluster, path consistency).

Every term takes a disjoint-union batch and is averaged per graph, so
removing a term never changes the value of the others; a one-graph batch
gives the per-graph value.

Teacher-side quantities enter every loss as plain numpy arrays, so no
gradient ever flows into the teacher. The teacher is frozen, so the targets
of the two structural terms over fixed walks and clusters are fold
constants: ``path_targets`` (per-walk log-probabilities) and
``cluster_targets`` (each graph's cluster-kernel entries) build them, once
per fold in training, and ``batch_path_consistency`` and
``batch_inter_cluster`` take them as they are and run no teacher-side op.
Each target is computed by the same autodiff ops and helpers as the student
side, on constants, so a student equal to its teacher scores exactly 0 on
every term when its targets are built from the same arrangement of rows
(the same walk matrix and the same batch of clusters); targets built over
another arrangement may differ from those in their last bits.
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
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"weight {name} must be finite and >= 0, got {value}")


def block_kernel(cluster_reps: Tensor, indptr: np.ndarray, indices: np.ndarray) -> Tensor:
    """Cosine similarities of cluster representations at the entries of a CSR pattern."""
    normed = ad.l2_normalize(cluster_reps, dim=-1, eps=NORM_EPS)
    return ad.sampled_dots(normed, normed, indptr, indices)


def _weighted_kl(logp_t: np.ndarray, logq: Tensor, row_weights: np.ndarray) -> Tensor:
    """sum_i row_weights[i] * KL(p_t[i] || q[i]) from row log-probabilities."""
    terms = ad.mul(ad.sub(ad.constant(logp_t), logq), ad.constant(np.exp(logp_t)))
    per_row = ad.matmul(terms, ad.constant(np.ones((logp_t.shape[1], 1))))
    return ad.tensor_sum(ad.mul(per_row, ad.constant(row_weights[:, None])))


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
    def log_probs(logits: Tensor) -> Tensor:
        return ad.log_softmax(ad.mul(logits, 1.0 / temperature), dim=1)

    logp_t = log_probs(ad.constant(teacher_logits)).values
    n = logp_t.shape[0]
    kl = _weighted_kl(logp_t, log_probs(student_logits), np.full(n, 1.0 / n))
    return kl if temperature == 1.0 else ad.mul(kl, temperature * temperature)


def batch_whole_graph(h_student: Tensor, h_teacher: np.ndarray) -> Tensor:
    """Squared L2 distance between unit-normalized graph embeddings."""
    target = ad.l2_normalize(ad.constant(h_teacher), eps=NORM_EPS).values
    normed = ad.l2_normalize(h_student, eps=NORM_EPS)
    sq = ad.frobenius_sq(ad.sub(normed, ad.constant(target)))
    return ad.mul(sq, 1.0 / target.shape[0])


def _block_pattern(cluster_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR pattern of each graph's diagonal block of the cluster kernel, row-major:
    row r of a graph whose clusters run from lo to hi holds the columns lo .. hi - 1."""
    lo = np.repeat(cluster_offsets[:-1], np.diff(cluster_offsets))
    row_sizes = np.repeat(cluster_offsets[1:], np.diff(cluster_offsets)) - lo
    indptr = np.concatenate([[0], np.cumsum(row_sizes)])
    return indptr, np.repeat(lo - indptr[:-1], row_sizes) + np.arange(indptr[-1])


def cluster_targets(teacher_clusters: np.ndarray, cluster_offsets: np.ndarray) -> np.ndarray:
    """The teacher's cluster-kernel entries that ``batch_inter_cluster`` compares: each
    graph's diagonal block, row-major, graph by graph."""
    return block_kernel(ad.constant(teacher_clusters), *_block_pattern(cluster_offsets)).values


def batch_inter_cluster(student_clusters: Tensor, teacher_kernel: np.ndarray,
                        cluster_offsets: np.ndarray, num_graphs: int) -> Tensor:
    """Squared Frobenius distance between each graph's student cluster kernel and
    its teacher kernel (``cluster_targets``). Only the entries of each graph's own
    diagonal block are computed, compared and differentiated."""
    indptr, indices = _block_pattern(cluster_offsets)
    if student_clusters.shape[0] != cluster_offsets[-1] or teacher_kernel.shape != indices.shape:
        raise IntegrityError(
            f"cluster inputs differ: {student_clusters.shape[0]} student clusters and "
            f"{teacher_kernel.shape} teacher kernel entries for {cluster_offsets[-1]} "
            f"clusters with {indices.size} block entries"
        )
    diff = ad.sub(block_kernel(student_clusters, indptr, indices), ad.constant(teacher_kernel))
    return ad.mul(ad.frobenius_sq(diff), 1.0 / num_graphs)


def _walk_log_probs(H: Tensor, walk_matrix: np.ndarray) -> Tensor:
    """Row-wise log-softmax over walk positions of the scores <H[walk[t]], H[walk[0]]>.

    Column 0 is the anchor's own score, columns 1..T the later positions in
    walk order, each scored against its walk's anchor by ``sampled_dots``.
    Value and gradient agree with one gather per position
    (``tests/oracles.reference_walk_log_probs``) within 1e-12 relative; only
    the summation order of the dot products and adjoints differs.
    """
    anchors = ad.gather_rows(H, walk_matrix[:, 0])
    own = ad.matmul(ad.mul(anchors, anchors), ad.constant(np.ones((H.shape[1], 1))))
    later = walk_matrix[:, 1:]
    scores = ad.sampled_dots(anchors, H, np.arange(len(later) + 1) * later.shape[1], later)
    return ad.log_softmax(ad.concat([own, scores], dim=1), dim=1)


def path_targets(H_teacher: np.ndarray, walk_matrix: np.ndarray) -> np.ndarray:
    """The teacher's per-walk log-probabilities that ``batch_path_consistency`` compares,
    one row per row of ``walk_matrix`` (full-length walks over rows of ``H_teacher``)."""
    return _walk_log_probs(ad.constant(H_teacher), walk_matrix).values


def batch_path_consistency(H_student: Tensor, teacher_log_probs: np.ndarray,
                           walk_matrix: np.ndarray, walk_weights: np.ndarray) -> Tensor:
    """Weighted sum of per-walk KLs over full-length walks (global node ids).

    ``teacher_log_probs`` holds each walk's teacher target (``path_targets``).
    ``walk_weights`` carries the per-graph averaging: 1 / (walks-in-graph *
    graphs-in-batch) for each row of ``walk_matrix``. Each walk's scores are
    laid out as in ``_walk_log_probs`` (the anchor's own score, then the
    later positions), on both sides; the value and its gradient stay within
    1e-12 relative of the per-position form.
    """
    if walk_matrix.size == 0:
        return ad.constant(np.asarray(0.0))
    if teacher_log_probs.shape != walk_matrix.shape:
        raise IntegrityError(f"teacher walk targets {teacher_log_probs.shape} do not match "
                             f"walk matrix {walk_matrix.shape}")
    return _weighted_kl(teacher_log_probs, _walk_log_probs(H_student, walk_matrix), walk_weights)
