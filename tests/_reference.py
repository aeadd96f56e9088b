"""Independent float64 oracles used by the test suite.

Everything here is written directly against numpy in 64-bit arithmetic and
never calls into the package's graph machinery, so it can serve as the
second, independent route for gradient checks, loss values, metrics, and
vote tallies.
"""

import numpy as np


# -- elementwise / layer math (float64) ----------------------------------------

def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-x))


def softmax(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def layer_norm(x, gain, shift, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + shift


def dropout(x, rate, mask):
    return np.asarray(x, dtype=np.float64) * mask / (1.0 - rate)


# -- finite differences --------------------------------------------------------

def finite_difference(f, params, step=1e-3, sample=None, rng=None):
    """Central-difference gradients of scalar ``f`` w.r.t. a dict of arrays.

    ``f`` takes the params dict and returns a float. With ``sample`` set,
    only that many randomly chosen coordinates per array are probed and the
    rest stay zero; returns (grads, probed_masks).
    """
    grads = {}
    probed = {}
    for name, value in params.items():
        value = np.asarray(value, dtype=np.float64)
        grad = np.zeros_like(value)
        mask = np.zeros(value.shape, dtype=bool)
        flat_idx = np.arange(value.size)
        if sample is not None and value.size > sample:
            flat_idx = rng.choice(value.size, size=sample, replace=False)
        work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
        for i in flat_idx:
            idx = np.unravel_index(i, value.shape)
            orig = work[name][idx]
            work[name][idx] = orig + step
            hi = f(work)
            work[name][idx] = orig - step
            lo = f(work)
            work[name][idx] = orig
            grad[idx] = (hi - lo) / (2.0 * step)
            mask[idx] = True
        grads[name] = grad
        probed[name] = mask
    return grads, probed


def gradient_error(analytic, numeric, mask=None):
    """Max abs difference normalized by the largest numeric gradient magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if mask is not None:
        analytic = analytic[mask]
        numeric = numeric[mask]
    scale = max(np.abs(numeric).max(initial=0.0), 1e-8)
    return np.abs(analytic - numeric).max(initial=0.0) / scale


# -- losses ---------------------------------------------------------------------

def cross_entropy(logits, labels, mask):
    """Mean negative log-likelihood over masked-in frames."""
    lp = log_softmax(logits)
    mask = np.asarray(mask, dtype=bool)
    safe = np.where(mask, labels, 0)  # masked frames may carry -1
    picks = lp[np.arange(len(safe)), safe]
    return -picks[mask].sum() / mask.sum()


def kl_divergence(logits_p, logits_q, mask):
    """Mean KL(softmax(p) || softmax(q)) over masked-in frames."""
    p = softmax(logits_p)
    diff = log_softmax(logits_p) - log_softmax(logits_q)
    per_frame = (p * diff).sum(axis=-1)
    mask = np.asarray(mask, dtype=bool)
    return per_frame[mask].sum() / mask.sum()


def rdrop_loss(logits1, logits2, labels, mask, alpha):
    """Two-pass consistency loss: mean CE plus alpha-weighted symmetric KL."""
    ce = 0.5 * (cross_entropy(logits1, labels, mask) + cross_entropy(logits2, labels, mask))
    kl = 0.5 * (kl_divergence(logits1, logits2, mask) + kl_divergence(logits2, logits1, mask))
    return ce + alpha * kl


# -- model forward passes (float64, masks injected) ------------------------------

def lstm_forward(x, weights, h0=None, c0=None):
    """Unidirectional multi-layer LSTM over the full sequence.

    ``weights`` is a list of (W_in, W_state, bias) per layer; gate order is
    input, forget, candidate, output along the last axis. Returns the top
    layer's per-frame hidden states plus final (h, c) per layer.
    """
    x = np.asarray(x, dtype=np.float64)
    states = []
    for li, (w_in, w_state, bias) in enumerate(weights):
        hidden = w_state.shape[0]
        h = np.zeros(hidden) if h0 is None else np.asarray(h0[li], dtype=np.float64).reshape(-1)
        c = np.zeros(hidden) if c0 is None else np.asarray(c0[li], dtype=np.float64).reshape(-1)
        outs = []
        for t in range(x.shape[0]):
            z = x[t] @ np.asarray(w_in, dtype=np.float64) \
                + h @ np.asarray(w_state, dtype=np.float64) + np.asarray(bias, dtype=np.float64)
            i = sigmoid(z[:hidden])
            f = sigmoid(z[hidden:2 * hidden])
            g = np.tanh(z[2 * hidden:3 * hidden])
            o = sigmoid(z[3 * hidden:])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        x = np.stack(outs)
        states.append((h, c))
    return x, states


def attention_block(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, masks=None, rate=0.0):
    """Multi-head self-attention with optional per-site dropout masks."""
    d = x.shape[-1]
    dh = d // heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    parts = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh)
        att = softmax(scores)
        if masks is not None:
            att = dropout(att, rate, masks[f"att{h}"])
        parts.append(att @ v[:, sl])
    ctx = np.concatenate(parts, axis=1)
    out = ctx @ wo + bo
    if masks is not None:
        out = dropout(out, rate, masks["proj"])
    return out


def transformer_forward(x, layers, heads, pe=None, masks=None, rate=0.0):
    """Post-norm transformer encoder in float64.

    ``layers`` is a list of dicts with keys wq,bq,wk,bk,wv,bv,wo,bo,w1,b1,w2,
    b2,g1,s1,g2,s2. ``masks`` (when given) is a list of per-layer dicts with
    dropout masks keyed att{h}, proj, mid, out.
    """
    x = np.asarray(x, dtype=np.float64)
    if pe is not None:
        x = x + np.asarray(pe[:x.shape[0]], dtype=np.float64)
    for li, lw in enumerate(layers):
        lm = masks[li] if masks is not None else None
        a = attention_block(x, lw["wq"], lw["bq"], lw["wk"], lw["bk"], lw["wv"],
                            lw["bv"], lw["wo"], lw["bo"], heads, lm, rate)
        x = layer_norm(x + a, lw["g1"], lw["s1"])
        mid = np.maximum(x @ lw["w1"] + lw["b1"], 0.0)
        if lm is not None:
            mid = dropout(mid, rate, lm["mid"])
        y = mid @ lw["w2"] + lw["b2"]
        if lm is not None:
            y = dropout(y, rate, lm["out"])
        x = layer_norm(x + y, lw["g2"], lw["s2"])
    return x


def head_forward(x, weights, masks=None, rate=0.0):
    """Dropout -> affine -> relu per hidden stage, then the output affine."""
    x = np.asarray(x, dtype=np.float64)
    hidden = weights[:-1]
    for i, (w, b) in enumerate(hidden):
        if masks is not None:
            x = dropout(x, rate, masks[f"head{i}"])
        x = np.maximum(x @ w + b, 0.0)
    w, b = weights[-1]
    return x @ w + b


# -- full model by parameter name -------------------------------------------------

def model_logits(params, encoder, x, *, lstm_layers=1, trm_layers=4, heads=4,
                 pe=None, carry=None, enc_masks=None, head_masks=None,
                 enc_rate=0.0, head_rate=0.0, head_stages=2):
    """Fusion -> encoder -> head in float64, reading weights by their names."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    fused = np.asarray(x, dtype=np.float64) @ p["fusion.weight"] + p["fusion.bias"]
    if encoder == "lstm":
        weights = [(p[f"lstm{li}.input_weight"], p[f"lstm{li}.state_weight"],
                    p[f"lstm{li}.bias"]) for li in range(lstm_layers)]
        h0 = c0 = None
        if carry is not None:
            h0 = [h for h, _ in carry]
            c0 = [c for _, c in carry]
        enc, _ = lstm_forward(fused, weights, h0=h0, c0=c0)
    else:
        layers = []
        for li in range(trm_layers):
            layers.append({
                "wq": p[f"trm{li}.attn.query_weight"], "bq": p[f"trm{li}.attn.query_bias"],
                "wk": p[f"trm{li}.attn.key_weight"], "bk": p[f"trm{li}.attn.key_bias"],
                "wv": p[f"trm{li}.attn.value_weight"], "bv": p[f"trm{li}.attn.value_bias"],
                "wo": p[f"trm{li}.attn.out_weight"], "bo": p[f"trm{li}.attn.out_bias"],
                "w1": p[f"trm{li}.ffn.in_weight"], "b1": p[f"trm{li}.ffn.in_bias"],
                "w2": p[f"trm{li}.ffn.out_weight"], "b2": p[f"trm{li}.ffn.out_bias"],
                "g1": p[f"trm{li}.norm1.gain"], "s1": p[f"trm{li}.norm1.shift"],
                "g2": p[f"trm{li}.norm2.gain"], "s2": p[f"trm{li}.norm2.shift"],
            })
        enc = transformer_forward(fused, layers, heads, pe=pe, masks=enc_masks, rate=enc_rate)
    head = [(p[f"head.hidden{i}.weight"], p[f"head.hidden{i}.bias"]) for i in range(head_stages)]
    head.append((p["head.out.weight"], p["head.out.bias"]))
    return head_forward(enc, head, masks=head_masks, rate=head_rate)


def split_dropout_masks(flat, trm_layers, heads, head_stages):
    """Group a tape-ordered flat mask list into (enc, head) structures per pass.

    Tape order per pass is: for each encoder layer, one (heads, L, L)
    attention mask, unstacked here to att0..att{heads-1}, then proj, mid,
    out; then the head's per-stage masks. The LSTM encoder contributes no
    masks. The LSTM path shares one encode, so its flat list holds only the
    two head groups.
    """
    it = iter(flat)

    def enc_group():
        groups = []
        for _ in range(trm_layers):
            att = next(it)
            assert att.ndim == 3 and att.shape[0] == heads, f"attention mask {att.shape}"
            d = {f"att{h}": att[h] for h in range(heads)}
            d["proj"] = next(it)
            d["mid"] = next(it)
            d["out"] = next(it)
            groups.append(d)
        return groups

    def head_group():
        return {f"head{i}": next(it) for i in range(head_stages)}

    if trm_layers:
        first = (enc_group(), head_group())
        second = (enc_group(), head_group())
    else:
        first = (None, head_group())
        second = (None, head_group())
    leftovers = sum(1 for _ in it)
    assert leftovers == 0, f"{leftovers} unconsumed dropout masks"
    return first, second


# -- metrics ----------------------------------------------------------------------

def brute_force_macro_f1(labels, predictions, mask, classes=8):
    """Per-class set counting, no confusion matrix; 0/0 resolves to 0."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    mask = np.asarray(mask, dtype=bool)
    labels = labels[mask]
    predictions = predictions[mask]
    scores = []
    for c in range(classes):
        tp = int(np.sum((labels == c) & (predictions == c)))
        fp = int(np.sum((labels != c) & (predictions == c)))
        fn = int(np.sum((labels == c) & (predictions != c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(f1)
    return scores, sum(scores) / classes


# -- voting -----------------------------------------------------------------------

def brute_force_vote(member_labels, member_probs):
    """Plurality, then highest mean probability among tied labels, then lowest index.

    ``member_labels``: (members,) ints for one frame.
    ``member_probs``: (members, classes).
    """
    member_labels = list(member_labels)
    member_probs = np.asarray(member_probs, dtype=np.float64)
    counts = {}
    for lab in member_labels:
        counts[lab] = counts.get(lab, 0) + 1
    top = max(counts.values())
    tied = sorted(lab for lab, n in counts.items() if n == top)
    if len(tied) == 1:
        return tied[0]
    mean_probs = member_probs.mean(axis=0)
    best = tied[0]
    for lab in tied[1:]:
        if mean_probs[lab] > mean_probs[best]:
            best = lab
    return best


# -- scalar Adam reference ----------------------------------------------------------

def adam_scalar(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam trajectory on a scalar parameter, float64."""
    w, m, v = float(w0), 0.0, 0.0
    path = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        w -= lr * mh / (np.sqrt(vh) + eps)
        path.append(w)
    return path


def adam_step_whole_array(params, grads, state):
    """One float32 Adam update applied to whole arrays, in place.

    The plain formula the blocked ``optim.adam_step`` must match bit for bit.
    ``params`` maps name -> float32 ndarray; ``state`` is an ``AdamState``
    whose ``step``, ``m`` and ``v`` are advanced here.
    """
    f32 = np.float32
    state.step += 1
    t = state.step
    b1, b2, one = f32(state.beta1), f32(state.beta2), f32(1)
    corr1 = f32(1.0 - state.beta1 ** t)
    corr2 = f32(1.0 - state.beta2 ** t)
    lr, eps = f32(state.lr), f32(state.eps)
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=f32)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= b1
        np.add(m, (one - b1) * g, out=m)
        v *= b2
        np.add(v, (one - b2) * np.square(g), out=v)
        step = np.asarray(np.sqrt(v / corr2), dtype=f32)
        step += eps
        np.divide(m, step, out=step)
        step *= lr / corr1
        p -= step


# -- float32 formulas the tape ops must match bit for bit -----------------------------

def relu_where(x, g):
    """ReLU as ``np.where(x > 0, x, 0)`` and its gradient ``g * (x > 0)``."""
    mask = x > 0
    return np.where(mask, x, np.float32(0)), g * mask


def affine_matmul_add(x, w, b, g):
    """``x @ w`` then a broadcast ``+ b`` (two separate ops, as a matmul node
    followed by a bias-add node computed them), and the gradients
    ``g @ w.T``, ``x.T @ g`` and ``g.sum(axis=(0,))``."""
    return x @ w + b, (g @ w.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g, g.sum(axis=(0,)))


def layer_norm_float32(x, gain, shift, g, eps=1e-5):
    """Layer norm over the last axis and its three gradients, written as
    whole-array float32 expressions, one temporary per step."""
    f32 = np.float32
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + f32(eps))
    normed = centered * inv
    out = normed * gain + shift
    lead = tuple(range(x.ndim - 1))
    dn = g * gain
    gx = inv * (dn - dn.mean(axis=-1, keepdims=True)
                - normed * (dn * normed).mean(axis=-1, keepdims=True))
    return out, (gx, (g * normed).sum(axis=lead), g.sum(axis=lead))
