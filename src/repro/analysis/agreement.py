"""Per-query ranking agreement between two scorers.

Distillation quality is usually tracked through NDCG, but the directly
optimized quantity is agreement with the teacher's *ordering*; this
module measures it with Kendall's tau averaged over queries — a useful
diagnostic for how much of a student's quality gap is approximation
error versus metric noise.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import LtrDataset
from repro.utils.validation import check_array_1d


def score_agreement(
    dataset: LtrDataset,
    scores_a,
    scores_b,
) -> float:
    """Mean per-query Kendall's tau between two score vectors.

    Queries with fewer than two documents (where tau is undefined) are
    skipped; returns ``nan`` if no query qualifies.
    """
    # Imported here: scipy.stats adds ~50 MB to every process that
    # imports repro, serving processes included.
    from scipy.stats import kendalltau

    a = check_array_1d(scores_a, "scores_a")
    b = check_array_1d(scores_b, "scores_b")
    if len(a) != dataset.n_docs or len(b) != dataset.n_docs:
        raise ValueError("score vectors must cover every dataset row")
    taus = []
    for qi in range(dataset.n_queries):
        sl = dataset.query_slice(qi)
        if sl.stop - sl.start < 2:
            continue
        tau, _ = kendalltau(a[sl], b[sl])
        if not np.isnan(tau):
            taus.append(tau)
    return float(np.mean(taus)) if taus else float("nan")
