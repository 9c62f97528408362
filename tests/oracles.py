"""Independent reference implementations used across the test suite.

Everything here is deliberately literal (loops, math.exp, sorting) and
stays decoupled from the library's vectorized paths.
"""

import math

import numpy as np


def brute_force_video_sets(batch, scores, best, tables, thr):
    """Apply the two strict threshold inequalities with a double loop."""
    b = len(batch)
    amb = set()
    for i in range(b):
        for j in range(b):
            if batch[j][1] == batch[i][1]:
                continue  # positive by video identity
            s = scores[i][j]
            u = (tables.u_q[batch[i][0]] + tables.u_v[batch[j][1], best[i][j]]) / 2.0
            if s > thr.tau_s and u > thr.tau_u:
                amb.add((i, j))
    return amb


def brute_force_frame_sets(batch, frame_sims, tables, thr):
    """Literal frame-level detection: (k_hat, ambiguous frames, ambiguous queries) per pair."""
    b, _, l_v = frame_sims.shape
    out = []
    for p in range(b):
        qi, vj = batch[p]
        f = frame_sims[p, p]
        k_hat = max(range(l_v), key=lambda k: (f[k], -k))
        amb = []
        for k in range(l_v):
            if k == k_hat:
                continue
            u_f = (tables.u_q[qi] + tables.u_v[vj, k]) / 2.0
            if f[k] > thr.tau_s and u_f > thr.tau_u:
                amb.append(k)
        amb_q = []
        for x in range(b):
            if batch[x][1] == vj:
                continue
            u = (tables.u_q[batch[x][0]] + tables.u_v[vj, k_hat]) / 2.0
            if frame_sims[x, p, k_hat] > thr.tau_s and u > thr.tau_u:
                amb_q.append(x)
        out.append((k_hat, set(amb), set(amb_q)))
    return out


def reference_single_positive(scores, i, direction="row"):
    """Standard one-positive contrastive loss via math.exp/log."""
    b = scores.shape[0]
    pos = math.exp(scores[i, i])
    if direction == "row":
        den = pos + sum(math.exp(scores[i, j]) for j in range(b) if j != i)
    else:
        den = pos + sum(math.exp(scores[x, i]) for x in range(b) if x != i)
    return -math.log(pos / den)


def exhaustive_recall(scores, pairing, ks=(1, 5, 10, 100)):
    """Sort-based recall@K with ties broken by lower video index."""
    n_q, n_v = scores.shape
    r = {k: 0 for k in ks}
    for i in range(n_q):
        order = sorted(range(n_v), key=lambda j: (-scores[i, j], j))
        rank = order.index(int(pairing[i])) + 1
        for k in ks:
            r[k] += rank <= k
    return {k: r[k] / n_q for k in ks}


def direct_uncertainty(m):
    """Eq.-literal double/triple loop averaging of a similarity map."""
    n_q, n_v, l_v = m.shape
    u_q = np.array([
        sum(m[x, y, z] for y in range(n_v) for z in range(l_v)) / (n_v * l_v)
        for x in range(n_q)
    ])
    u_v = np.array([
        [sum(m[x, y, z] for x in range(n_q)) / n_q for z in range(l_v)]
        for y in range(n_v)
    ])
    return u_q, u_v


# --- per-pair loop losses ------------------------------------------------
# The library computes these over boolean masks; the loops below walk each
# mask row's member indices one pair at a time, gathering one scalar per
# set member, and build the same autodiff graph values so gradients
# compare too.

def loop_loss_triplet(scores, sets, margin, mode):
    """Triplet hinge against the hardest set member, one pair at a time."""
    from prvr import autodiff as ad

    mask = sets.amb if mode == "ambiguous" else (~sets.pos) & (~sets.amb)
    b = len(sets.pos)
    sv = np.asarray(ad.val(scores), dtype=np.float64)
    flat = ad.reshape(scores, (b * b,))

    sel_idx, pos_idx = [], []
    for p in range(b):
        row = np.nonzero(mask[p])[0]
        if row.size:
            j_star = row[np.argmax(sv[p, row])]
            sel_idx.append(p * b + j_star)
            pos_idx.append(p * (b + 1))
        col = np.nonzero(mask[:, p])[0]
        if col.size:
            i_star = col[np.argmax(sv[col, p])]
            sel_idx.append(i_star * b + p)
            pos_idx.append(p * (b + 1))
    if not sel_idx:
        return 0.0
    hinges = ad.relu(ad.add(ad.sub(ad.take(flat, sel_idx), ad.take(flat, pos_idx)),
                            float(margin)))
    return ad.div(ad.reduce_sum(hinges), float(b))


def loop_loss_frame(frame_sims, frames, cfg):
    """Frame-level objective from the member indices of FrameSets, pair by pair."""
    from prvr import autodiff as ad

    def gather_scalar(flat, idx):
        return ad.reshape(ad.take(flat, [idx]), ())

    def gather_sum(flat, idxs):
        if len(idxs) == 0:
            return 0.0
        return ad.reduce_sum(ad.take(flat, list(idxs)))

    shape = np.shape(ad.val(frame_sims))
    b, l_v = shape[0], shape[2]
    if l_v == 1:
        return {"nce": 0.0, "trip_a": 0.0, "trip_n": 0.0, "total": 0.0}

    flat = ad.reshape(frame_sims, (b * b * l_v,))
    e_flat = ad.exp(flat)
    fv = np.asarray(ad.val(frame_sims), dtype=np.float64)

    def fidx(x, p, k):
        return (x * b + p) * l_v + k

    nce_sum = 0.0
    sel_a, base_a, sel_n, base_n = [], [], [], []
    for p in range(b):
        k_hat = int(frames.best_frame[p])
        anchor = fidx(p, p, k_hat)
        e_anchor = gather_scalar(e_flat, anchor)
        amb_frames, neg_frames, amb_queries, neg_queries = (
            np.flatnonzero(mask[p]) for mask in (
                frames.amb_frame_mask, frames.neg_frame_mask,
                frames.amb_query_mask, frames.neg_query_mask))

        # text -> frames within the paired video
        amb_f = [fidx(p, p, k) for k in amb_frames]
        neg_f = [fidx(p, p, k) for k in neg_frames]
        num = ad.add(e_anchor, gather_sum(e_flat, amb_f))
        den = ad.add(num, gather_sum(e_flat, neg_f))
        nce_sum = ad.add(nce_sum, ad.sub(ad.log(den), ad.log(num)))

        # selected frame -> batch queries
        amb_q = [fidx(x, p, k_hat) for x in amb_queries]
        neg_q = [fidx(x, p, k_hat) for x in neg_queries]
        num_q = ad.add(e_anchor, gather_sum(e_flat, amb_q))
        den_q = ad.add(num_q, gather_sum(e_flat, neg_q))
        nce_sum = ad.add(nce_sum, ad.sub(ad.log(den_q), ad.log(num_q)))

        # hardest-in-set triplets, both directions
        for idxs, sel, base in ((amb_frames, sel_a, base_a),
                                (neg_frames, sel_n, base_n)):
            if len(idxs):
                k_star = idxs[int(np.argmax(fv[p, p, idxs]))]
                sel.append(fidx(p, p, k_star))
                base.append(anchor)
        for idxs, sel, base in ((amb_queries, sel_a, base_a),
                                (neg_queries, sel_n, base_n)):
            if len(idxs):
                x_star = idxs[int(np.argmax(fv[idxs, p, k_hat]))]
                sel.append(fidx(x_star, p, k_hat))
                base.append(anchor)

    def hinge_total(sel, base, margin):
        if not sel:
            return 0.0
        h = ad.relu(ad.add(ad.sub(ad.take(flat, sel), ad.take(flat, base)), float(margin)))
        return ad.div(ad.reduce_sum(h), float(b))

    nce = ad.div(nce_sum, float(b))
    trip_a = hinge_total(sel_a, base_a, cfg.margin_ma)
    trip_n = hinge_total(sel_n, base_n, cfg.margin_m)
    total = ad.add(ad.add(ad.mul(nce, cfg.lambda_nce), trip_a), trip_n)
    return {"nce": nce, "trip_a": trip_a, "trip_n": trip_n, "total": total}


# --- the two-form objective --------------------------------------------
# The video and frame objectives as two separate implementations: the
# video level on the (b, b) matrix with its transposed masks, the frame
# level on flat gathers. The library runs both levels through one body;
# these forms pin its values and gradients bit for bit.

def _form_contrast(e_pos, e, amb, neg, axis):
    from prvr import autodiff as ad

    num = ad.add(e_pos, ad.reduce_sum(ad.mul(e, amb), axis=axis))
    den = ad.add(num, ad.reduce_sum(ad.mul(e, neg), axis=axis))
    return ad.sub(ad.log(den), ad.log(num))


def _form_hardest(values, mask):
    return np.argmax(np.where(mask, values, -np.inf), axis=1), mask.any(axis=1)


def _form_hinge_mean(flat, hard_idx, anchor_idx, margin, b):
    from prvr import autodiff as ad

    if len(hard_idx) == 0:
        return 0.0
    gap = ad.sub(ad.take(flat, hard_idx), ad.take(flat, anchor_idx))
    return ad.div(ad.reduce_sum(ad.relu(ad.add(gap, float(margin)))), float(b))


def _form_triplet(scores, sets, mask, margin):
    from prvr import autodiff as ad

    b = len(sets.pos)
    sv = np.asarray(ad.val(scores), dtype=np.float64)
    slots = np.arange(b)
    video, row_ok = _form_hardest(sv, mask)
    query, col_ok = _form_hardest(sv.T, mask.T)
    valid = np.concatenate([row_ok, col_ok])
    hard = np.concatenate([slots * b + video, query * b + slots])[valid]
    anchor = np.tile(slots * (b + 1), 2)[valid]
    return _form_hinge_mean(ad.reshape(scores, (b * b,)), hard, anchor, margin, b)


def matrix_loss_video(scores, sets, cfg):
    """Video objective on the (b, b) score matrix: one exp of the matrix,
    contrastive means over rows and columns, triplets on the transpose."""
    from prvr import autodiff as ad

    b = len(sets.pos)
    e = ad.exp(scores)
    diag = ad.take(ad.reshape(e, (b * b,)), np.arange(b) * (b + 1))
    amb_mask = sets.amb.astype(np.float64)
    neg_mask = sets.neg.astype(np.float64)
    nce_t2v = ad.reduce_mean(_form_contrast(diag, e, amb_mask, neg_mask, axis=1))
    nce_v2t = ad.reduce_mean(_form_contrast(diag, e, amb_mask, neg_mask, axis=0))
    trip_a = _form_triplet(scores, sets, sets.amb, cfg.margin_ma)
    trip_n = _form_triplet(scores, sets, sets.neg, cfg.margin_m)
    total = ad.add(ad.add(ad.mul(ad.add(nce_t2v, nce_v2t), cfg.lambda_nce), trip_a), trip_n)
    return {"nce_t2v": nce_t2v, "nce_v2t": nce_v2t,
            "trip_a": trip_a, "trip_n": trip_n, "total": total}


def gather_loss_frame(frame_sims, frames, cfg):
    """Frame objective on flat gathers of the (b, b, L_v) cosine tensor."""
    from prvr import autodiff as ad

    b, _, l_v = np.shape(ad.val(frame_sims))
    if l_v == 1:
        return {"nce": 0.0, "trip_a": 0.0, "trip_n": 0.0, "total": 0.0}
    slots = np.arange(b)
    k_hat = np.asarray(frames.best_frame)
    flat = ad.reshape(frame_sims, (b * b * l_v,))
    own_idx = (slots * (b + 1) * l_v)[:, None] + np.arange(l_v)
    sel_idx = (slots[None, :] * b + slots[:, None]) * l_v + k_hat[:, None]
    anchor_idx = slots * (b + 1) * l_v + k_hat

    def exp_at(idx):
        return ad.exp(ad.take(flat, idx))

    amb_f, neg_f = frames.amb_frame_mask, frames.neg_frame_mask
    amb_q, neg_q = frames.amb_query_mask, frames.neg_query_mask
    e_anchor = exp_at(anchor_idx)
    nce = ad.add(
        _form_contrast(e_anchor, exp_at(own_idx), amb_f.astype(np.float64),
                       neg_f.astype(np.float64), 1),
        _form_contrast(e_anchor, exp_at(sel_idx), amb_q.astype(np.float64),
                       neg_q.astype(np.float64), 1))
    nce = ad.div(ad.reduce_sum(nce), float(b))

    fv = np.asarray(ad.val(frame_sims), dtype=np.float64).reshape(-1)
    own_v, sel_v = fv[own_idx], fv[sel_idx]

    def triplet(mask_f, mask_q, margin):
        k_star, f_ok = _form_hardest(own_v, mask_f)
        x_star, q_ok = _form_hardest(sel_v, mask_q)
        valid = np.concatenate([f_ok, q_ok])
        hard = np.concatenate([own_idx[slots, k_star], sel_idx[slots, x_star]])[valid]
        return _form_hinge_mean(flat, hard, np.tile(anchor_idx, 2)[valid], margin, b)

    trip_a = triplet(amb_f, amb_q, cfg.margin_ma)
    trip_n = triplet(neg_f, neg_q, cfg.margin_m)
    total = ad.add(ad.add(ad.mul(nce, cfg.lambda_nce), trip_a), trip_n)
    return {"nce": nce, "trip_a": trip_a, "trip_n": trip_n, "total": total}

# --- per-pair scoring ------------------------------------------------------
# One (query, video) pair or one table entry at a time, against which the
# library's batched and corpus-wide paths are checked.

def _check_index(n, i, what):
    if not 0 <= i < n:
        raise IndexError(f"{what} index {i} out of range [0, {n})")


def frame_uncertainty(tables, i, j, k):
    """Uncertainty of query i against frame k of video j."""
    _check_index(tables.u_q.shape[0], i, "query")
    _check_index(tables.u_v.shape[0], j, "video")
    _check_index(tables.u_v.shape[1], k, "frame")
    return (tables.u_q[i] + tables.u_v[j, k]) / 2.0


def cosine_rows(q, v_frames):
    """Cosines between one query (d,) and a stack of frames (..., d)."""
    from prvr import autodiff as ad
    from prvr.errors import NumericalError

    q = np.asarray(ad.val(q), dtype=np.float64)
    f = np.asarray(ad.val(v_frames), dtype=np.float64)
    qn = np.sqrt((q * q).sum())
    fn = np.sqrt((f * f).sum(axis=-1, keepdims=True))
    if qn == 0.0 or np.any(fn == 0.0):
        raise NumericalError("cosine similarity of a zero vector is undefined")
    return ((q / qn) * (f / fn)).sum(axis=-1)


def retrieval_score(q, v_frames):
    """Max frame cosine and its frame index (ties -> lowest index)."""
    sims = cosine_rows(q, v_frames)
    k = int(np.argmax(sims))
    return float(sims[k]), k


def fused_score(theta_params, phi_params, q_features, v_features):
    """Average of the two branches' retrieval scores for one pair."""
    from prvr.encoder import encode_text, encode_video

    s_t, _ = retrieval_score(encode_text(theta_params, q_features),
                             encode_video(theta_params, v_features))
    s_p, _ = retrieval_score(encode_text(phi_params, q_features),
                             encode_video(phi_params, v_features))
    return (s_t + s_p) / 2.0


# --- dense-map corpus scoring ---------------------------------------------
# The library streams corpus scoring over query chunks. The oracle below
# is the dense-map form it replaced: the whole N_q x N_v x L_v map built
# one query at a time, then reduced with numpy over the whole map.

def map_corpus_scores(params, corpus):
    """(scores, best, u_q, u_v) of one branch from the whole cosine map."""
    from prvr.encoder import encode_text, encode_video

    q = encode_text(params, corpus.text_features)
    f = encode_video(params, corpus.video_features)
    qu = q / np.sqrt((q * q).sum(axis=-1, keepdims=True))
    fu = f / np.sqrt((f * f).sum(axis=-1, keepdims=True))
    m = np.empty((corpus.n_q, corpus.n_v, corpus.l_v))
    for x in range(corpus.n_q):
        m[x] = (qu[x] * fu).sum(axis=-1)
    best = np.argmax(m, axis=2)
    scores = np.take_along_axis(m, best[..., None], axis=2)[..., 0]
    return scores, best, m.mean(axis=(1, 2)), m.mean(axis=0)


def map_pair_uncertainty(u_q, u_v, best):
    return (u_q[:, None] + u_v[np.arange(best.shape[1])[None, :], best]) / 2.0


def map_thresholds(scores, best, u_q, u_v, pairing):
    """(tau_s, tau_u): mean positive score, mean pair uncertainty."""
    tau_s = float(scores[np.arange(scores.shape[0]), pairing].mean())
    return tau_s, float(map_pair_uncertainty(u_q, u_v, best).mean())


def map_branch_scores(state, corpus):
    """Per-branch (scores, best, pair uncertainty) over all corpus pairs."""
    out = []
    for branch in (state.theta, state.phi):
        scores, best, u_q, u_v = map_corpus_scores(branch.params, corpus)
        out.append((scores, best, map_pair_uncertainty(u_q, u_v, best)))
    return out


# --- per-element finite differences ----------------------------------------

def loop_fd_losses(params, build_loss, name):
    """(2, n) losses of grad-check's per-element central differences on
    tensor `name`: row 0 at +FD_STEP, row 1 at -FD_STEP, one forward per
    element and sign, the loop grad-check ran before it batched probes."""
    from prvr import autodiff as ad
    from prvr.encoder import EncoderParams
    from prvr.gradcheck import FD_STEP

    base = EncoderParams(params.dims, {k: v.copy() for k, v in params.tensors.items()})
    flat = base.tensors[name].reshape(-1)
    losses = np.empty((2, flat.size))
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + FD_STEP
        losses[0, idx] = float(ad.val(build_loss(base)))
        flat[idx] = orig - FD_STEP
        losses[1, idx] = float(ad.val(build_loss(base)))
        flat[idx] = orig
    return losses
