"""Independent reference implementations the test suite checks the library against.

Everything here is deliberately written the slow, obvious way -- dense
matrices, python loops, brute-force enumeration -- and shares no code with
the package beyond public data containers. When a test compares the library
to one of these, a disagreement means a real defect, not a shared bug.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

from gbrec.data import IngestError


# ---------------------------------------------------------------------------
# dense propagation oracle


def _row_normalize(a: np.ndarray) -> np.ndarray:
    deg = a.sum(axis=1, keepdims=True)
    return np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)


def _act(z: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == "leaky_relu":
        return np.where(z > 0, z, slope * z)
    if kind == "identity":
        return z
    if kind == "tanh":
        return np.tanh(z)
    raise ValueError(kind)


def dense_edges_matrix(n_rows: int, n_cols: int, edges) -> np.ndarray:
    m = np.zeros((n_rows, n_cols))
    for r, c in edges:
        m[r, c] = 1.0
    return m


def dense_forward_oracle(
    num_users: int,
    num_items: int,
    launch_edges,
    join_edges,
    share_edges,
    user_emb: np.ndarray,
    item_emb: np.ndarray,
    weights: dict[str, np.ndarray],
    biases: dict[str, np.ndarray],
    num_layers: int,
    activation: str,
    slope: float,
):
    """Full propagation via dense normalized adjacencies.

    Returns per-slot block pairs {slot: [view0, view1]} for the four entity
    slots. ``share_edges`` are directed (initiator, participant) pairs.
    """
    A_launch = dense_edges_matrix(num_users, num_items, launch_edges)
    A_join = dense_edges_matrix(num_users, num_items, join_edges)
    A_share = dense_edges_matrix(num_users, num_users, share_edges)

    def smooth(A, U0, I0):
        users, items = [U0.astype(np.float64)], [I0.astype(np.float64)]
        Nu, Ni = _row_normalize(A), _row_normalize(A.T)
        for _ in range(num_layers):
            u_prev, i_prev = users[-1], items[-1]
            users.append(Nu @ i_prev)
            items.append(Ni @ u_prev)
        return np.concatenate(users, axis=1), np.concatenate(items, axis=1)

    ul0, il0 = smooth(A_launch, user_emb, item_emb)
    uj0, ij0 = smooth(A_join, user_emb, item_emb)

    def branch(A, source, w_name):
        mean = _row_normalize(A) @ source
        z = mean @ weights[w_name] + biases[w_name]
        out = _act(z, activation, slope)
        out[A.sum(axis=1) == 0] = 0.0
        return out

    ul1 = branch(A_launch, il0, "w_item_to_user_launch") + branch(A_share, uj0, "w_user_join_to_launch")
    il1 = branch(A_launch.T, ul0, "w_user_to_item_launch")
    uj1 = branch(A_join, ij0, "w_item_to_user_join") + branch(A_share.T, ul0, "w_user_launch_to_join")
    ij1 = branch(A_join.T, uj0, "w_user_to_item_join")

    return {
        "user_launch": [ul0, ul1],
        "item_launch": [il0, il1],
        "user_join": [uj0, uj1],
        "item_join": [ij0, ij1],
    }


def composite_score_oracle(
    blocks: dict, friends_of, alpha: float, user: int, item: int, renormalize_alpha: bool = False
) -> float:
    """Two-role prediction with an explicit loop over the user's friends; under
    ``renormalize_alpha`` a friendless user scores by the launch product alone."""
    ul = np.concatenate([b[user] for b in blocks["user_launch"]])
    il = np.concatenate([b[item] for b in blocks["item_launch"]])
    own = float(ul @ il)
    fr = list(friends_of(user))
    social = 0.0
    if fr:
        ij = np.concatenate([b[item] for b in blocks["item_join"]])
        for f in fr:
            uj = np.concatenate([b[int(f)] for b in blocks["user_join"]])
            social += float(uj @ ij)
        social /= len(fr)
    elif renormalize_alpha:
        return own
    return (1.0 - alpha) * own + alpha * social


def mf_score(params, user: int, item: int) -> float:
    """Single inner product between the raw user and item embeddings."""
    return float(params.user_emb[user] @ params.item_emb[item])


# ---------------------------------------------------------------------------
# objective oracle


def bpr_reference(gap: float) -> float:
    """-ln sigmoid(gap), written the textbook way (safe for |gap| < ~500)."""
    return -math.log(1.0 / (1.0 + math.exp(-gap)))


def loss_failed(record, neg_item: int, score, social, beta: float) -> float:
    """The paper's loss for a failed launch against one sampled negative item:
    the initiator's pair, then each friend's pair flipped and weighted by ``beta``."""
    gap = score(record.initiator, record.item) - score(record.initiator, neg_item)
    total = float(np.logaddexp(0.0, -gap))
    for f in social.friends(record.initiator):
        flipped = score(int(f), neg_item) - score(int(f), record.item)
        total += beta * float(np.logaddexp(0.0, -flipped))
    return total


def loss_success(record, neg_item: int, score) -> float:
    """The paper's loss for a successful launch against one sampled negative
    item: the initiator's pair, then each participant's."""
    gap = score(record.initiator, record.item) - score(record.initiator, neg_item)
    total = float(np.logaddexp(0.0, -gap))
    for p in record.participants:
        gap_p = score(p, record.item) - score(p, neg_item)
        total += float(np.logaddexp(0.0, -gap_p))
    return total


def objective_oracle(records, negatives, score, friends_of, beta: float) -> float:
    """Ranking part of the objective, record by record, term by term."""
    total = 0.0
    negatives = np.atleast_2d(negatives)
    for rec, row in zip(records, negatives):
        for neg in row:
            neg = int(neg)
            total += bpr_reference(score(rec.initiator, rec.item) - score(rec.initiator, neg))
            if rec.success:
                for p in rec.participants:
                    total += bpr_reference(score(p, rec.item) - score(p, neg))
            else:
                for f in friends_of(rec.initiator):
                    total += beta * bpr_reference(score(int(f), neg) - score(int(f), rec.item))
    return total


def build_terms_oracle(records, negatives, friends_of, beta: float) -> dict[str, np.ndarray]:
    """The batch's pairwise terms, appended record by record, negative by negative.

    Keys and dtypes are those of ``TermSet``'s fields.
    """
    terms = {"users": [], "hi": [], "lo": [], "weight": [], "pos": []}

    def add(user, hi, lo, weight, pos):
        for key, value in zip(terms, (user, hi, lo, weight, pos)):
            terms[key].append(value)

    for rec, row in zip(records, np.atleast_2d(negatives)):
        for neg in row:
            neg = int(neg)
            add(rec.initiator, rec.item, neg, 1.0, rec.success)
            if rec.success:
                for p in rec.participants:
                    add(p, rec.item, neg, 1.0, True)
            elif beta != 0.0:
                for f in friends_of(rec.initiator):
                    add(int(f), neg, rec.item, beta, False)
    dtypes = {"users": np.int64, "hi": np.int64, "lo": np.int64, "weight": np.float64, "pos": bool}
    return {key: np.asarray(values, dtype=dtypes[key]) for key, values in terms.items()}


# ---------------------------------------------------------------------------
# ingest and leave-one-out split, record by record


def ingest_oracle(records, pairs) -> dict:
    """Dense id remap of parsed raw records and social pairs, record by record.

    Users and items are numbered in ascending original id. A social pair is a
    self-loop, or dropped when either side never appears in a record, or kept.
    Records come back as ``(initiator, item, participants, success)`` tuples.
    """
    user_ids = sorted({r.initiator for r in records} | {p for r in records for p in r.participants})
    item_ids = sorted({r.item for r in records})
    user_map = {orig: dense for dense, orig in enumerate(user_ids)}
    item_map = {orig: dense for dense, orig in enumerate(item_ids)}
    remapped = [
        (user_map[r.initiator], item_map[r.item], tuple(user_map[p] for p in r.participants), r.success)
        for r in records
    ]
    self_loops = dropped = 0
    kept = []
    for a, b in pairs:
        if a == b:
            self_loops += 1
        elif a not in user_map or b not in user_map:
            dropped += 1
        else:
            kept.append((user_map[a], user_map[b]))
    return {
        "records": remapped,
        "user_ids": user_ids,
        "item_ids": item_ids,
        "pairs": kept,
        "num_social_edges": len({(min(a, b), max(a, b)) for a, b in kept}),
        "dropped_social_self_loops": self_loops,
        "dropped_social_edges": dropped,
        "num_success": sum(1 for r in records if r.success),
    }


def item_probs(planted, user: int) -> np.ndarray:
    """Softmax launch distribution over all items for one initiator."""
    logits = (planted.launch_vecs[user] @ planted.item_vecs.T) / planted.item_temp
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def join_probs(planted, users: np.ndarray, item: int) -> np.ndarray:
    """Each of ``users``' chance to join a launch of ``item``."""
    z = planted.join_scale * (planted.join_vecs[users] @ planted.item_vecs[item]) + planted.join_bias
    return 1.0 / (1.0 + np.exp(-z))


def simulate_oracle(planted, num_records: int, rng: np.random.Generator) -> list[tuple]:
    """The generator's launches with one ``Generator.choice`` per drawn
    initiator and item, as ``(initiator, item, participants, success)`` tuples."""
    P, Q = planted.activity.shape[0], planted.num_items
    out = []
    for t in range(num_records):
        initiator = t if t < P else int(rng.choice(P, p=planted.activity))
        item = t if t < Q else int(rng.choice(Q, p=item_probs(planted, initiator)))
        friends = planted.social.friends(initiator)
        if friends.size:
            friends = friends[rng.random(friends.size) < join_probs(planted, friends, item)]
        out.append((initiator, item, tuple(friends.tolist()), friends.size >= planted.success_threshold))
    return out


def split_oracle(records, num_items: int, seed: int, num_negatives: int):
    """Leave-one-out split, user by user, with one generator call per draw.

    Users in ascending id order with >= 2 initiated records and an untouched
    item each draw a test position, then those with >= 3 records each draw a
    validation position among the others, then each draws one key per item
    and takes the untouched items of its smallest keys, sorted. Returns
    (train records in log order, validation by user, test by user,
    negatives by user).
    """
    rng = np.random.default_rng(seed)
    by_initiator: dict[int, list[int]] = {}
    touched: dict[int, set[int]] = {}
    for idx, r in enumerate(records):
        by_initiator.setdefault(r.initiator, []).append(idx)
        for user in (r.initiator, *r.participants):
            touched.setdefault(user, set()).add(r.item)
    users = [
        u for u in sorted(by_initiator) if len(by_initiator[u]) >= 2 and len(touched[u]) < num_items
    ]
    test_idx = {u: by_initiator[u][int(rng.integers(len(by_initiator[u])))] for u in users}
    validation_idx = {}
    for u in users:
        if len(by_initiator[u]) >= 3:
            rest = [i for i in by_initiator[u] if i != test_idx[u]]
            validation_idx[u] = rest[int(rng.integers(len(rest)))]
    negatives = {}
    for u in users:
        keys = rng.random(num_items)
        complement = sorted((keys[j], j) for j in range(num_items) if j not in touched[u])
        negatives[u] = np.array(sorted(j for _, j in complement[:num_negatives]), dtype=np.int64)
    held = set(test_idx.values()) | set(validation_idx.values())
    train = [r for i, r in enumerate(records) if i not in held]
    validation = {u: records[i] for u, i in validation_idx.items()}
    test = {u: records[i] for u, i in test_idx.items()}
    return train, validation, test, negatives


# ---------------------------------------------------------------------------
# text writers, one f-string per line


def write_behaviors_oracle(path: str, records) -> None:
    """``(initiator, item, participants, success)`` records, one line each."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, parts, ok in records:
            fh.write(f"{u}\t{i}\t{','.join(map(str, parts)) or '-'}\t{int(ok)}\n")


def write_pairs_oracle(path: str, pairs) -> None:
    """``a<TAB>b`` per pair: ``social.tsv``, and ``users.tsv`` / ``items.tsv``
    as ``enumerate(original ids)``."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def write_negatives_oracle(path: str, negatives) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in sorted(negatives):
            fh.write(f"{u}\t{','.join(str(int(i)) for i in negatives[u])}\n")


# ---------------------------------------------------------------------------
# split files, line by line and token by token

INT64_MAX = 2**63 - 1


def _id_token(tok: str, where: str) -> int:
    """An id is ASCII digits, leading zeros allowed, with a value of at most INT64_MAX."""
    if not re.fullmatch("-?[0-9]+", tok):
        raise IngestError(f"{where}: not an integer: {tok!r}")
    if tok[0] == "-":
        raise IngestError(f"{where}: negative id: -{int(tok[1:])}")
    if int(tok) > INT64_MAX:
        raise IngestError(f"{where}: id {int(tok)} too large (max {INT64_MAX})")
    return int(tok)


def _lines(path: str):
    """``(line number, "path:line", tab-separated fields)`` of each non-empty
    line, with ``\\r\\n`` and ``\\r`` read as ``\\n`` and each byte that is not
    UTF-8 read as its ``\\xNN`` escape."""
    with open(path, "rb") as fh:
        text = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8", "backslashreplace")
    for lineno, line in enumerate(text.split("\n"), 1):
        if line:
            yield lineno, f"{path}:{lineno}", line.split("\t")


def parse_behavior_oracle(path: str, warnings: list | None = None):
    """A behavior file, record by record: ``(records, num_users, num_items,
    dropped, deduped)`` with records as ``(initiator, item, participants,
    success)`` tuples, or the first bad line's ``IngestError``. The warning
    for each dropped record is appended to ``warnings``, in line order."""
    records = []
    dropped = deduped = 0
    for lineno, where, fields in _lines(path):
        if len(fields) != 4:
            raise IngestError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
        initiator = _id_token(fields[0], where)
        item = _id_token(fields[1], where)
        if fields[2] == "-":
            participants = []
        elif fields[2] == "":
            raise IngestError(f"{where}: empty participant field (use '-')")
        else:
            participants = [_id_token(t, where) for t in fields[2].split(",")]
        if fields[3] not in ("0", "1"):
            raise IngestError(f"{where}: success flag must be 0 or 1, got {fields[3]!r}")
        seen = list(dict.fromkeys(participants))
        deduped += len(participants) - len(seen)
        if initiator in seen:
            if warnings is not None:
                warnings.append(f"{where}: initiator {initiator} listed as participant, record dropped")
            dropped += 1
            continue
        records.append((initiator, item, tuple(seen), fields[3] == "1"))
    users = [r[0] for r in records] + [p for r in records for p in r[2]]
    num_items = max([r[1] for r in records], default=-1) + 1
    return records, max(users, default=-1) + 1, num_items, dropped, deduped


def parse_social_oracle(path: str) -> list[tuple[int, int]]:
    """A social file, pair by pair, or the first bad line's ``IngestError``."""
    pairs = []
    for _, where, fields in _lines(path):
        if len(fields) != 2:
            raise IngestError(f"{where}: expected 2 tab-separated fields, got {len(fields)}")
        pairs.append((_id_token(fields[0], where), _id_token(fields[1], where)))
    return pairs


def negatives_digest_oracle(negatives: dict) -> str:
    """The frozen-negatives digest of a ``{user: ids}`` dict, one user at a time."""
    h = hashlib.sha256()
    for u in sorted(negatives):
        h.update(str(u).encode())
        h.update(b":")
        h.update(np.ascontiguousarray(negatives[u], dtype=np.int64).tobytes())
        h.update(b";")
    return h.hexdigest()


def l2_oracle(tensors: dict[str, np.ndarray], coeff: float) -> float:
    return coeff * sum(float((t.astype(np.float64) ** 2).sum()) for t in tensors.values())


def social_smoothness_oracle(user_emb: np.ndarray, friends_of, coeff: float) -> float:
    total = 0.0
    for u in range(user_emb.shape[0]):
        fr = list(friends_of(u))
        if not fr:
            continue
        mean = np.mean([user_emb[int(f)] for f in fr], axis=0)
        diff = user_emb[u].astype(np.float64) - mean
        total += float(diff @ diff)
    return coeff * total


# ---------------------------------------------------------------------------
# signed scatters and the score gap's backward pass, by plain loops


def signed_scatter_oracle(out, idx, table, scale, gather=None, minus_gather=None, minus_idx=None) -> np.ndarray:
    """``out`` plus, per row ``r``, the sum of ``row[i]`` over the ``i`` with
    ``idx[i] == r`` minus the sum over the ``i`` with ``minus_idx[i] == r``.

    ``row[i]`` is ``scale[i] * (table[gather[i]] - table[minus_gather[i]])``,
    both rows read in float64 (``gather`` None reads ``table[i]``; a missing
    ``minus_gather``, ``minus_idx`` or ``scale`` drops its part). Each of the
    two sums is a sequential float64 sum in index order; their difference is
    rounded to ``out.dtype`` once.
    """
    plus = np.zeros((out.shape[0], table.shape[1]))
    minus = np.zeros_like(plus)
    for i in range(len(idx)):
        row = table[i if gather is None else gather[i]].astype(np.float64)
        if minus_gather is not None:
            row = row - table[minus_gather[i]].astype(np.float64)
        if scale is not None:
            row = np.float64(scale[i]) * row
        plus[idx[i]] += row
        if minus_idx is not None:
            minus[minus_idx[i]] += row
    return out + (plus - minus).astype(out.dtype)


def score_gap_backward_oracle(emb, users, hi, lo, dgap, adj) -> None:
    """The adjoints of ``dgap * sum_b <query_b[u], items_b[lo] - items_b[hi]>``,
    a loop per (query, items) block and side."""
    for d_q, d_i, q, bi in zip(adj.d_query, adj.d_items, emb.query, emb.items):
        d_q[...] = signed_scatter_oracle(d_q, users, bi, dgap, gather=lo, minus_gather=hi)
        d_i[...] = signed_scatter_oracle(d_i, lo, q, dgap, gather=users, minus_idx=hi)


# ---------------------------------------------------------------------------
# finite differences


def fd_gradients(loss_fn, tensors: dict[str, np.ndarray], h: float = 1e-3) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``loss_fn()`` w.r.t. each tensor, in place."""
    out = {}
    for name, t in tensors.items():
        g = np.zeros_like(t)
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = t[ix]
            t[ix] = orig + h
            fp = loss_fn()
            t[ix] = orig - h
            fm = loss_fn()
            t[ix] = orig
            g[ix] = (fp - fm) / (2.0 * h)
        out[name] = g
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    num = float(np.linalg.norm((a - b).ravel()))
    den = max(float(np.linalg.norm(a.ravel())), float(np.linalg.norm(b.ravel())), 1e-12)
    return num / den


# ---------------------------------------------------------------------------
# ranking metrics, written from their definitions


def rank_from_scores(test_score: float, negative_scores: np.ndarray) -> int:
    """Pessimistic rank of the test item among its negatives (0 = top)."""
    greater = int(np.sum(negative_scores > test_score))
    equal = int(np.sum(negative_scores == test_score))
    return greater + equal


def recall_reference(rank: int, k: int) -> float:
    return 1.0 if rank < k else 0.0


def ndcg_reference(rank: int, k: int) -> float:
    return 1.0 / math.log2(rank + 2.0) if rank < k else 0.0


# ---------------------------------------------------------------------------
# finite-difference preconditioning
#
# Central differences at step h are only valid when no piecewise-linear
# activation input sits within ~5h of its kink. The transform branches run in
# parallel off the same layer-0 blocks, so shifting one bias column moves that
# column's pre-activations uniformly and touches nothing else. We exploit that
# to nudge every bias column until all pre-activations clear the kink.


def clear_activation_kinks(
    num_users: int,
    num_items: int,
    launch_edges,
    join_edges,
    share_edges,
    user_emb: np.ndarray,
    item_emb: np.ndarray,
    weights: dict[str, np.ndarray],
    biases: dict[str, np.ndarray],
    num_layers: int,
    target: float = 5e-3,
) -> float:
    """Shift bias columns (in place) so every pre-activation clears zero.

    Returns the achieved margin: the smallest |pre-activation| over all
    non-empty rows of all branches after shifting.
    """
    A_launch = dense_edges_matrix(num_users, num_items, launch_edges)
    A_join = dense_edges_matrix(num_users, num_items, join_edges)
    A_share = dense_edges_matrix(num_users, num_users, share_edges)

    def smooth(A, U0, I0):
        users, items = [U0.astype(np.float64)], [I0.astype(np.float64)]
        Nu, Ni = _row_normalize(A), _row_normalize(A.T)
        for _ in range(num_layers):
            u_prev, i_prev = users[-1], items[-1]
            users.append(Nu @ i_prev)
            items.append(Ni @ u_prev)
        return np.concatenate(users, axis=1), np.concatenate(items, axis=1)

    ul0, il0 = smooth(A_launch, user_emb, item_emb)
    uj0, ij0 = smooth(A_join, user_emb, item_emb)

    branch_inputs = {
        "w_item_to_user_launch": (A_launch, il0),
        "w_user_join_to_launch": (A_share, uj0),
        "w_user_to_item_launch": (A_launch.T, ul0),
        "w_item_to_user_join": (A_join, ij0),
        "w_user_launch_to_join": (A_share.T, ul0),
        "w_user_to_item_join": (A_join.T, uj0),
    }

    grid = np.linspace(-0.2, 0.2, 801)
    margin = math.inf
    for name, (A, source) in branch_inputs.items():
        live = A.sum(axis=1) > 0
        if not live.any():
            continue
        z = _row_normalize(A)[live] @ source @ weights[name] + biases[name]
        for c in range(z.shape[1]):
            col = z[:, c]
            gaps = np.abs(col[None, :] + grid[:, None]).min(axis=1)
            best = int(np.argmax(gaps))
            if gaps[best] > np.abs(col).min():
                biases[name][c] += grid[best]
                col += grid[best]
        margin = min(margin, float(np.abs(z).min()))
    if margin < target:
        raise AssertionError(f"kink clearing achieved only {margin:.2e} (< {target:.0e})")
    return margin


# ---------------------------------------------------------------------------
# optimizer references (scalar loops)


def sgd_reference(tensor: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    out = tensor.copy()
    flat_t, flat_g = out.ravel(), grad.ravel()
    for i in range(flat_t.size):
        flat_t[i] = flat_t[i] - lr * flat_g[i]
    return out


def adam_reference(tensor, grads_sequence, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Apply a sequence of gradient steps with bias-corrected moments."""
    t = tensor.astype(np.float64).copy()
    m = np.zeros_like(t)
    v = np.zeros_like(t)
    for step, g in enumerate(grads_sequence, start=1):
        g = g.astype(np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        t = t - lr * m_hat / (np.sqrt(v_hat) + eps)
    return t
