"""Dual-path adaptive-correlation inverted transformer.

The network stacks encoder layers over a panel of N nodes, each carrying
T time steps of F features. A layer runs three stages:

1. Inverted temporal block: each feature's full time series is one
   attention token. The first layer scores per-feature importance with a
   small MLP, splices the softmax weight onto each token, then applies
   multi-head self-attention across the F tokens of every node,
   followed by residual projection, layer norm and a feedforward block.
2. Dual-direction fusion + sparse node attention: the token matrix and
   its transpose query each other to produce two node summaries (one
   over the embedding axis, one over the feature axis); each summary
   drives a node-to-node attention in which every row keeps only its
   top-n scores, so the learned adjacency stays sparse; both attentions
   weight one value map of the token matrix, computed once. Both fusion
   scores are the bilinear form (z_i W) z_i with a D x F weight product
   W, softmaxed over F or over D; computed in that order they cost a
   tenth of the FLOPs of building the query and key maps, and nothing
   larger than the N x F x D token matrix is kept for backward.
3. Gated merge: two tanh self-gates and a sigmoid mutual gate blend the
   two path encodings, the result is added back onto the block's token
   input under a layer norm, and a second feedforward block with
   residual and layer norm closes the layer.

A decoder pools the feature tokens with a learned softmax weighting and
predicts each node's target as mean + exp(tanh(.)), splitting the fit
into a slow mean and a bounded deviation.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from . import numerics as nm
from .data import atomic_open
from .numerics import (
    NumericError,
    ParameterError,
    ShapeError,
    Tensor,
    concat,
    fold_bgrad,
    fold_dot,
    fold_wgrad,
    layer_norm,
    matmul,
    relu,
    reshape,
    softmax_lastaxis,
    sum_,
    tanh,
    topn_keep_mask,
    transpose_last2,
    xavier_uniform,
)

# the component removals, in the row order of the ablation table
ABLATION_FLAGS = ("no_dpgate", "no_temporal_path", "no_feature_path", "no_itblock", "no_importance")


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and ablation switches for one model instance."""

    n_nodes: int
    n_features: int
    lookback: int = 30
    horizon: int = 1
    d_model: int = 256
    n_heads: int = 4
    n_layers: int = 3
    ffd_hidden: int | None = None
    topn_ratio: float = 0.10
    ablation: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "ablation", frozenset(self.ablation))
        for name in ("n_nodes", "n_features", "lookback", "horizon", "d_model", "n_heads", "n_layers"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.ffd_hidden is not None and self.ffd_hidden < 1:
            raise ParameterError(f"ffd_hidden must be positive, got {self.ffd_hidden}")
        if self.d_model % self.n_heads != 0:
            raise ParameterError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 < self.topn_ratio <= 1.0:
            raise ParameterError(f"topn_ratio must lie in (0, 1], got {self.topn_ratio}")
        unknown = self.ablation.difference(ABLATION_FLAGS)
        if unknown:
            raise ParameterError(f"unknown ablation flags: {sorted(unknown)}")
        if "no_temporal_path" in self.ablation and "no_feature_path" in self.ablation:
            raise ParameterError("cannot remove both correlation paths")

    @property
    def n_keep(self) -> int:
        return math.ceil(self.topn_ratio * self.n_nodes)

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffd_width(self) -> int:
        return self.ffd_hidden if self.ffd_hidden is not None else self.d_model

    @property
    def importance_active(self) -> bool:
        return "no_importance" not in self.ablation and "no_itblock" not in self.ablation

    @property
    def feature_path_active(self) -> bool:
        return "no_feature_path" not in self.ablation

    @property
    def temporal_path_active(self) -> bool:
        return "no_temporal_path" not in self.ablation

    def layer_input_width(self, layer_index: int) -> int:
        if layer_index > 0:
            return self.d_model
        return self.lookback + 1 if self.importance_active else self.lookback


@dataclass
class AttentionMaps:
    """Per-layer node-to-node attention matrices, averaged over heads.

    One N x N row-stochastic matrix per path per layer; an entry is None
    when that path is ablated.
    """

    feature: list
    temporal: list


def _layer_layout(config: ModelConfig, i: int) -> list[tuple[str, tuple[int, ...], str]]:
    d, ff = config.d_model, config.ffd_width
    t, f = config.lookback, config.n_features
    dc = config.d_head
    d_in = config.layer_input_width(i)
    ab = config.ablation
    out: list[tuple[str, tuple[int, ...], str]] = []

    if "no_itblock" in ab:
        out += [("res_w", (d_in, d), "xavier"), ("res_b", (d,), "zeros")]
    else:
        if i == 0 and config.importance_active:
            out += [
                ("imp_w1", (t, t), "xavier"),
                ("imp_b1", (t,), "zeros"),
                ("imp_w2", (t, 1), "xavier"),
            ]
        out += [
            ("w_q", (d_in, d), "xavier"),
            ("w_k", (d_in, d), "xavier"),
            ("w_v", (d_in, d), "xavier"),
            ("w_o", (d, d), "xavier"),
            ("res_w", (d_in, d), "xavier"),
            ("res_b", (d,), "zeros"),
            ("ln1_g", (d,), "ones"),
            ("ln1_b", (d,), "zeros"),
            ("ffd1_w1", (d, ff), "xavier"),
            ("ffd1_b1", (ff,), "zeros"),
            ("ffd1_w2", (ff, d), "xavier"),
            ("ffd1_b2", (d,), "zeros"),
            ("ln2_g", (d,), "ones"),
            ("ln2_b", (d,), "zeros"),
        ]

    if config.temporal_path_active:
        out += [("fus_wq", (f, dc), "xavier"), ("fus_wki", (d, dc), "xavier")]
    if config.feature_path_active:
        out += [("fus_wqi", (d, dc), "xavier"), ("fus_wk", (f, dc), "xavier")]

    if config.feature_path_active:
        out += [("qg_feat", (f, d), "xavier"), ("kg_feat", (f, d), "xavier")]
    if config.temporal_path_active:
        out += [("qg_temp", (d, d), "xavier"), ("kg_temp", (d, d), "xavier")]
    out += [("vg", (d, d), "xavier")]

    if "no_dpgate" not in ab:
        if config.feature_path_active:
            out += [("ws_f", (d, d), "xavier"), ("bs_f", (d,), "zeros")]
        if config.temporal_path_active:
            out += [("ws_t", (d, d), "xavier"), ("bs_t", (d,), "zeros")]
        if config.feature_path_active and config.temporal_path_active:
            out += [("wm", (2 * d, d), "xavier")]

    out += [
        ("ln_dpa_g", (d,), "ones"),
        ("ln_dpa_b", (d,), "zeros"),
        ("ffd2_w1", (d, ff), "xavier"),
        ("ffd2_b1", (ff,), "zeros"),
        ("ffd2_w2", (ff, d), "xavier"),
        ("ffd2_b2", (d,), "zeros"),
        ("ln3_g", (d,), "ones"),
        ("ln3_b", (d,), "zeros"),
    ]
    return out


def _decoder_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    d, t = config.d_model, config.horizon
    return [
        ("w_token", (d, 1), "xavier"),
        ("w_mean", (d, t), "xavier"),
        ("b_mean", (t,), "zeros"),
        ("w_dev", (d, t), "xavier"),
        ("b_dev", (t,), "zeros"),
    ]


def _sections(config: ModelConfig) -> list[tuple[str, list[tuple[str, tuple[int, ...], str]]]]:
    """(name prefix, local layout) of each encoder layer, then of the decoder."""
    out = [(f"enc{i}.", _layer_layout(config, i)) for i in range(config.n_layers)]
    return out + [("dec.", _decoder_layout(config))]


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, init) list; also the checkpoint ordering."""
    return [
        (prefix + name, shape, kind)
        for prefix, layout in _sections(config)
        for name, shape, kind in layout
    ]


class ModelParams:
    """All learnable weights as one name -> Tensor dict in layout order.

    `layers[i]` and `decoder` are attribute views (`lp.w_q`) over the
    same Tensor objects; a name the config's layout omits is absent.
    """

    def __init__(self, config: ModelConfig, named: dict[str, Tensor]):
        self.config = config
        self._named: dict[str, Tensor] = {}
        views = []
        for prefix, layout in _sections(config):
            local = {name: named[prefix + name] for name, _, _ in layout}
            self._named.update((prefix + name, t) for name, t in local.items())
            views.append(SimpleNamespace(**local))
        self.layers = views[:-1]
        self.decoder = views[-1]

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelParams":
        rng = np.random.default_rng(seed)
        named: dict[str, Tensor] = {}
        for name, shape, kind in parameter_layout(config):
            if kind == "xavier":
                data = xavier_uniform(rng, shape[0], shape[1], shape)
            elif kind == "ones":
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            named[name] = Tensor(data, requires_grad=True)
        # adjacency attention starts from a positive-semidefinite score form
        # (key map == query map), so initial node scores are genuine
        # similarities; a random indefinite form would freeze an arbitrary
        # sparsity pattern under the top-n mask
        for name, tensor in named.items():
            if ".qg_" in name:
                named[name.replace(".qg_", ".kg_")].data[...] = tensor.data
        return cls.from_named(config, named)

    @classmethod
    def from_named(cls, config: ModelConfig, named: dict[str, Tensor]) -> "ModelParams":
        """Validate names, shapes and values of an outside parameter set (any order)."""
        layout = parameter_layout(config)
        expected = {name for name, _, _ in layout}
        missing = expected - named.keys()
        extra = named.keys() - expected
        if missing or extra:
            raise ParameterError(
                f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, shape, _ in layout:
            t = named[name]
            if t.shape != shape:
                raise ShapeError(f"parameter {name} has shape {t.shape}, expected {shape}")
            if not np.isfinite(t.data).all():
                raise NumericError(f"parameter {name} contains non-finite values")
        return cls(config, named)

    def named(self) -> dict[str, Tensor]:
        """The live name -> Tensor dict, in layout order; callers must not mutate it."""
        return self._named

    def tensors(self) -> Iterator[Tensor]:
        yield from self._named.values()

    def zero_grads(self) -> None:
        for t in self.tensors():
            t.zero_grad()

    def detached(self) -> "ModelParams":
        """Same weights, no gradient recording; for evaluation passes."""
        named = {name: Tensor(t.data) for name, t in self._named.items()}
        return ModelParams.from_named(self.config, named)

    def state_copy(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._named.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if self._named.keys() != state.keys():
            raise ParameterError("state dict does not match parameter layout")
        for name, t in self._named.items():
            t.data[...] = state[name]


# -- forward operations ---------------------------------------------------


def importance_weights(x_inv: Tensor, lp: SimpleNamespace) -> tuple[Tensor, Tensor]:
    """Score each feature token, softmax per node, splice weight onto token.

    Returns (w, x_aug) with w summing to 1 over features for every node
    and x_aug carrying w as one extra trailing element per token.
    """
    n, f, _ = x_inv.shape
    # no output bias: one shared shift of every score leaves the softmax unchanged
    hidden = relu(matmul(x_inv, lp.imp_w1) + lp.imp_b1)
    scores = matmul(hidden, lp.imp_w2)
    w = softmax_lastaxis(reshape(scores, (n, f)))
    x_aug = concat([x_inv, reshape(w, (n, f, 1))], axis=-1)
    return w, x_aug


def temporal_self_attention(x_aug: Tensor, lp: SimpleNamespace, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over each node's feature tokens.

    One graph node: the Q/K/V projections (one GEMM over the stacked
    maps), per-head softmax(Q Kᵀ / √d_h) V, the head merge and the output
    projection `w_o`. Backward restacks the three maps rather than keep
    the stacked copy.
    """
    x, w_o = x_aug.data, lp.w_o.data

    def w_qkv():
        return np.concatenate([lp.w_q.data, lp.w_k.data, lp.w_v.data], axis=1)

    n, f, _ = x.shape
    d = w_o.shape[0]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    # (N, F, 3d) -> (3, N, h, F, d_h) views of the stacked Q, K, V heads
    q, k, v = fold_dot(x, w_qkv()).reshape(n, f, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    # `softmax_array` in place, with the row max taken by pairwise maxima
    # over the F columns: a reduction over the short innermost axis is
    # slow, and a max is exact whichever way it is taken
    attn = (q @ k.swapaxes(-1, -2)) * scale
    top = attn[..., :1].copy()
    for j in range(1, f):
        np.maximum(top, attn[..., j : j + 1], out=top)
    attn -= top
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(n, f, d)

    def grads(g):
        g_ctx = fold_dot(g, w_o.T).reshape(n, f, n_heads, dh).transpose(0, 2, 1, 3)
        g_s = nm.softmax_array_grad(attn, g_ctx @ v.swapaxes(-1, -2)) * scale
        g_qkv = np.stack([g_s @ k, g_s.swapaxes(-1, -2) @ q, attn.swapaxes(-1, -2) @ g_ctx])
        g_qkv = g_qkv.transpose(1, 3, 0, 2, 4).reshape(n, f, 3 * d)
        g_x = fold_dot(g_qkv, w_qkv().T) if x_aug.requires_grad else None
        return (g_x, *np.split(fold_wgrad(x, g_qkv), 3, axis=1), fold_wgrad(ctx, g))

    return nm.fused(fold_dot(ctx, w_o), (x_aug, lp.w_q, lp.w_k, lp.w_v, lp.w_o), grads)


def _ffd(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Token-wise feedforward with its residual, x + (relu(x w1 + b1) w2 + b2), as one graph node.

    Backward keeps the pre-activation only and recomputes its relu.
    """
    pre = fold_dot(x.data, w1.data) + b1.data

    def grads(g):
        # relu's subgradient at 0 taken as 0
        g_pre = fold_dot(g, w2.data.T) * (pre > 0.0)
        g_x = g + fold_dot(g_pre, w1.data.T) if x.requires_grad else None
        g_w2 = fold_wgrad(np.maximum(pre, 0.0), g)
        return g_x, fold_wgrad(x.data, g_pre), fold_bgrad(g_pre), g_w2, fold_bgrad(g)

    return nm.fused(x.data + (fold_dot(np.maximum(pre, 0.0), w2.data) + b2.data), (x, w1, b1, w2, b2), grads)


def _affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The token-wise projection x w + b as one graph node: a temporal block's residual path."""

    def grads(g):
        g_x = fold_dot(g, w.data.T) if x.requires_grad else None
        return g_x, fold_wgrad(x.data, g), fold_bgrad(g)

    return nm.fused(x.data @ w.data + b.data, (x, w, b), grads)


def encode_temporal(x: Tensor, lp: SimpleNamespace, config: ModelConfig, layer_index: int) -> Tensor:
    """Inverted temporal block: N x T x F input (layer 0) or N x F x d tokens.

    With no_itblock the whole block collapses to a per-token affine
    projection, so the output is linear in the input.
    """
    # layer 0 swaps the time-step rows into feature-series tokens
    tokens = transpose_last2(x) if layer_index == 0 else x
    if layer_index == 0 and config.importance_active:
        _, tokens = importance_weights(tokens, lp)
    residual = _affine(tokens, lp.res_w, lp.res_b)
    if "no_itblock" in config.ablation:
        return residual
    attended = temporal_self_attention(tokens, lp, config.n_heads)
    x_hat = layer_norm(attended, lp.ln1_g, lp.ln1_b, residual)
    return layer_norm(_ffd(x_hat, lp.ffd1_w1, lp.ffd1_b1, lp.ffd1_w2, lp.ffd1_b2), lp.ln2_g, lp.ln2_b)


def _summary(z_i: Tensor, w_a: Tensor, w_b: Tensor, axis: int) -> Tensor:
    """Sum `z_i` over `axis`, weighted by softmax_axis((z_i (w_a w_bᵀ)) z_i); one graph node.

    `axis` -2 sums the F feature tokens (the temporal summary, N x D),
    -1 the D embedding positions of each token (the feature summary,
    N x F). The D x F weight product is formed first, so the largest
    array held for backward is the N x F x D softmax.
    """
    z, w_ab = z_i.data, w_a.data @ w_b.data.T
    p = fold_dot(z, w_ab)  # N x F x F
    weights = nm.softmax_array(p @ z, axis=axis)

    def grads(g):
        g = np.expand_dims(g, axis)
        g_s = nm.softmax_array_grad(weights, g * z, axis=axis)
        g_p = g_s @ z.swapaxes(-1, -2)
        g_z = g * weights + p.swapaxes(-1, -2) @ g_s + fold_dot(g_p, w_ab.T) if z_i.requires_grad else None
        g_ab = fold_wgrad(z, g_p)
        return g_z, g_ab @ w_b.data, g_ab.T @ w_a.data

    return nm.fused((weights * z).sum(axis=axis), (z_i, w_a, w_b), grads)


def double_direction_fusion(z_i: Tensor, lp: SimpleNamespace) -> tuple[Tensor | None, Tensor | None]:
    """Mutual querying between the token matrix and its transpose.

    z_i holds feature tokens (N x F x D); z = transpose (N x D x F). The
    temporal summary weights features per embedding position, the
    feature summary weights embedding positions per token, and each is
    collapsed by summing its weighted axis. In the paper's form:

        h_temp[n, d] = sum_f softmax_f(Q_F K_F^I.T)[n, d, f] * z[n, d, f]
        h_feat[n, f] = sum_d softmax_d(Q_F^I K_F.T)[n, f, d] * z_i[n, f, d]

    with Q_F = z W_q, K_F^I = z_i W_ki, Q_F^I = z_i W_qi, K_F = z W_k.
    Both scores are one bilinear form in z_i, read in two directions:

        S_temp.T = (z_i (W_ki W_q.T)) z_i    softmax over F (axis -2)
        S_feat   = (z_i (W_qi W_k.T)) z_i    softmax over D (axis -1)

    and that is how they are computed: the D x F weight product, then two
    N x F x F by F x D products. At N=50, F=8, D=256, d_c=64 this is about
    3.5 MFLOP per summary instead of 39 for the N x D x d_c query and key
    maps, which need not be built, held for backward or transposed.

    A path the layer's layout leaves out (no fusion weights) gets None,
    and from here on a path is present exactly when its summary is.
    """
    h_temp = _summary(z_i, lp.fus_wki, lp.fus_wq, -2) if hasattr(lp, "fus_wq") else None
    h_feat = _summary(z_i, lp.fus_wqi, lp.fus_wk, -1) if hasattr(lp, "fus_wqi") else None
    return h_temp, h_feat


def tokens_by_head(t: np.ndarray, n_heads: int) -> np.ndarray:
    """(N, F, d) -> (heads, N, F * d_head), contiguous: each head's slice of every token, node by node."""
    n, f, d = t.shape
    heads = np.ascontiguousarray(t.reshape(n, f, n_heads, d // n_heads).transpose(2, 0, 1, 3))
    return heads.reshape(n_heads, n, -1)


def node_attention(
    h: Tensor,
    v: Tensor,
    v_heads: np.ndarray,
    w_q: Tensor,
    w_k: Tensor,
    n_keep: int,
    n_heads: int,
) -> tuple[Tensor, np.ndarray]:
    """Sparse node-to-node attention driven by a node summary.

    Queries and keys come from the summary `h` (N x d_h); values are the
    token-wise value map `v` (N x F x d_g) of the layer's token encoding,
    so the full series encoding survives; `v_heads` is `tokens_by_head(v.data)`,
    made once for both paths of a layer. Every row keeps only its
    `n_keep` largest scores. The keep mask is shared across heads
    (derived from head-averaged scores) so the learned adjacency has
    exactly `n_keep` neighbors per node; returns the head-averaged
    attention matrix alongside the output tokens. The query and key maps,
    scores, masked softmax and value product are one graph node.
    """
    n, f, d_g = v.shape
    dh = d_g // n_heads
    scale = 1.0 / math.sqrt(dh)

    # heads laid out contiguously and head-major, as the per-op composition
    # kept in tests/test_model.py lays them out: the scores, and with them
    # the top-n neighbours, agree with it bit for bit
    def by_head(t):  # (N, d_g) -> (h, N, d_h)
        return np.ascontiguousarray(t.reshape(n, n_heads, dh).transpose(1, 0, 2))

    def tokens_by_node(t):  # (h, N, F * d_h) -> (N, F, d_g)
        return t.reshape(n_heads, n, f, dh).transpose(1, 2, 0, 3).reshape(n, f, d_g)

    q = by_head(h.data @ w_q.data)
    k_t = np.ascontiguousarray(by_head(h.data @ w_k.data).swapaxes(-1, -2))
    scores = (q @ k_t) * scale
    # a softmax over each row's kept scores, exponentiating those only: each
    # row keeps exactly `n_keep` columns, in order, and summing the dense rows
    # rounds as the -1e30-filled softmax of `tests/oracles.py` does, so `attn`
    # is bit-identical to that reference
    rows, cols = np.nonzero(topn_keep_mask(scores.mean(axis=0), n_keep))
    if len(rows) != n * n_keep:  # a row keeps fewer only where its scores hold a NaN
        raise NumericError(f"node attention scores are not finite: {len(rows)} of {n * n_keep} kept")
    kept = scores[:, rows, cols].reshape(n_heads, n, n_keep)
    kept -= kept.max(axis=-1, keepdims=True)
    np.exp(kept, out=kept)
    kept = kept.reshape(n_heads, -1)
    attn = np.zeros_like(scores)
    attn[:, rows, cols] = kept
    attn[:, rows, cols] = kept / attn.sum(axis=-1)[:, rows]

    def grads(g):
        g_ctx = tokens_by_head(g, n_heads)
        g_s = nm.softmax_array_grad(attn, g_ctx @ v_heads.swapaxes(-1, -2)) * scale
        g_q = (g_s @ k_t.swapaxes(-1, -2)).transpose(1, 0, 2).reshape(n, d_g)
        g_k = (q.swapaxes(-1, -2) @ g_s).transpose(2, 0, 1).reshape(n, d_g)
        g_h = g_q @ w_q.data.T + g_k @ w_k.data.T if h.requires_grad else None
        g_v = tokens_by_node(attn.swapaxes(-1, -2) @ g_ctx)
        return g_h, h.data.T @ g_q, h.data.T @ g_k, g_v

    out = nm.fused(tokens_by_node(attn @ v_heads), (h, w_q, w_k, v), grads)
    return out, attn.mean(axis=0)


def ncorr_attention(
    h: Tensor,
    z_i: Tensor,
    w_q: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    n_keep: int,
    n_heads: int,
) -> tuple[Tensor, np.ndarray]:
    """`node_attention` with its own value map `z_i w_v` (one more graph node)."""
    v = matmul(z_i, w_v)
    return node_attention(h, v, tokens_by_head(v.data, n_heads), w_q, w_k, n_keep, n_heads)


def dp_gate(
    o_feat: Tensor | None,
    o_temp: Tensor | None,
    lp: SimpleNamespace,
    ablation: frozenset = frozenset(),
) -> Tensor:
    """Blend the path encodings present (not None) through the double-path gate.

    Each present path passes its tanh self-gate; two paths then mix
    through a sigmoid mutual gate, all in one graph node. Under no_dpgate
    a lone path passes through unchanged and two paths are averaged.
    """
    if o_feat is not None and o_temp is not None and o_feat.shape != o_temp.shape:
        raise ShapeError(f"path encodings disagree: {o_feat.shape} vs {o_temp.shape}")
    if "no_dpgate" in ablation:
        if o_feat is None or o_temp is None:
            return o_temp if o_feat is None else o_feat
        return (o_feat + o_temp) * 0.5
    paths = []
    if o_feat is not None:
        paths.append((o_feat, lp.ws_f, lp.bs_f))
    if o_temp is not None:
        paths.append((o_temp, lp.ws_t, lp.bs_t))
    gates = [np.tanh(fold_dot(o.data, w.data) + b.data) for o, w, b in paths]

    def gated(i):  # path i's self-gated encoding, recomputed in backward rather than kept
        return gates[i] * paths[i][0].data

    parents = [p for path in paths for p in path]
    if len(paths) == 1:
        out = gated(0)
    else:
        # concat([o_feat, o_temp]) @ wm, as one product per path with its rows of wm
        d = lp.wm.shape[1]
        mix_rows = (lp.wm.data[:d], lp.wm.data[d:])
        mix = nm.sigmoid_array(fold_dot(o_feat.data, mix_rows[0]) + fold_dot(o_temp.data, mix_rows[1]))
        out = gated(0) * mix + gated(1) * (1.0 - mix)
        parents.append(lp.wm)

    def grads(g):
        if len(paths) == 1:
            g_gated = [g]
        else:
            g_gated = [g * mix, g * (1.0 - mix)]
            g_mix = g * (gated(0) - gated(1)) * mix * (1.0 - mix)
        result, g_wm = [], []
        for i, ((o, w, _), t, g_p) in enumerate(zip(paths, gates, g_gated)):
            g_pre = g_p * o.data * (1.0 - t * t)
            g_o = g_p * t + fold_dot(g_pre, w.data.T)
            if len(paths) == 2:
                g_o += fold_dot(g_mix, mix_rows[i].T)
                g_wm.append(fold_wgrad(o.data, g_mix))
            result += [g_o, fold_wgrad(o.data, g_pre), fold_bgrad(g_pre)]
        return result + ([np.concatenate(g_wm)] if g_wm else [])

    return nm.fused(out, parents, grads)


def decode(m: Tensor, dec: SimpleNamespace) -> tuple[Tensor, Tensor, Tensor]:
    """Pool feature tokens, predict mean plus bounded exponential deviation."""
    n, f, _ = m.shape
    token_w = softmax_lastaxis(reshape(matmul(m, dec.w_token), (n, f)))
    pooled = sum_(m * reshape(token_w, (n, f, 1)), axis=1)
    mean_part = matmul(pooled, dec.w_mean) + dec.b_mean
    dev = tanh(matmul(pooled, dec.w_dev) + dec.b_dev)
    y_hat = mean_part + nm.exp(dev)
    return y_hat, mean_part, dev


def forward(x, params: ModelParams, config: ModelConfig) -> tuple[Tensor, AttentionMaps]:
    """Run the full network on one day's panel.

    x: N x T x F. Returns predictions (N x horizon) and the per-layer
    node attention matrices of both paths.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if not np.isfinite(x.data).all():
        raise NumericError("forward input contains non-finite values")
    expected = (config.n_nodes, config.lookback, config.n_features)
    if x.shape != expected:
        raise ShapeError(f"forward input shape {x.shape}, config expects {expected}")

    maps = AttentionMaps(feature=[], temporal=[])
    h = x
    for i, lp in enumerate(params.layers):
        z_i = encode_temporal(h, lp, config, i)
        # both paths read one value map and one head-major copy of it, so
        # its GEMMs run once per layer
        v = matmul(z_i, lp.vg)
        v_heads = tokens_by_head(v.data, config.n_heads)
        h_temp, h_feat = double_direction_fusion(z_i, lp)
        o_feat = o_temp = a_feat = a_temp = None
        if h_feat is not None:
            o_feat, a_feat = node_attention(
                h_feat, v, v_heads, lp.qg_feat, lp.kg_feat, config.n_keep, config.n_heads
            )
        if h_temp is not None:
            o_temp, a_temp = node_attention(
                h_temp, v, v_heads, lp.qg_temp, lp.kg_temp, config.n_keep, config.n_heads
            )
        maps.feature.append(a_feat)
        maps.temporal.append(a_temp)
        merged = dp_gate(o_feat, o_temp, lp, config.ablation)
        dpa_out = layer_norm(z_i, lp.ln_dpa_g, lp.ln_dpa_b, merged)
        h = layer_norm(_ffd(dpa_out, lp.ffd2_w1, lp.ffd2_b1, lp.ffd2_w2, lp.ffd2_b2), lp.ln3_g, lp.ln3_b)

    y_hat, _, _ = decode(h, params.decoder)
    return y_hat, maps


# -- checkpoint format ------------------------------------------------------
#
# Single binary file of named tensors, little-endian throughout:
#   magic "DPTENSOR" | u32 version | u32 count
#   per tensor: u16 name_len | name utf-8 | u8 dtype tag (1 = float64)
#               | u8 ndim | u32 * ndim dims | raw row-major payload

_MAGIC = b"DPTENSOR"
_VERSION = 1
_DTYPE_F64 = 1


def write_named_tensors(path: str, named: dict[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<II", _VERSION, len(named)))
    for name, arr in named.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<BB", _DTYPE_F64, arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.astype("<f8").tobytes())
    with atomic_open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_named_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint file; a truncated file or trailing bytes raise ParameterError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _MAGIC:
        raise ParameterError(f"{path}: not a checkpoint file (bad magic)")
    view = memoryview(raw)
    offset = len(_MAGIC)

    def take(n_bytes: int, what: str) -> memoryview:
        nonlocal offset
        if offset + n_bytes > len(raw):
            raise ParameterError(
                f"{path}: checkpoint truncated at byte {len(raw)} while reading {what}"
            )
        chunk = view[offset : offset + n_bytes]
        offset += n_bytes
        return chunk

    version, count = struct.unpack("<II", take(8, "the header"))
    if version != _VERSION:
        raise ParameterError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"tensor {i} name length"))
        try:
            name = bytes(take(name_len, f"tensor {i} name")).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParameterError(f"{path}: tensor {i} name is not utf-8") from err
        dtype_tag, ndim = struct.unpack("<BB", take(2, f"{name} dtype"))
        if dtype_tag != _DTYPE_F64:
            raise ParameterError(f"{path}: unknown dtype tag {dtype_tag} for {name}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name} shape"))
        n_bytes = 8 * int(np.prod(shape, dtype=np.int64)) if ndim else 8
        arr = np.frombuffer(take(n_bytes, f"{name} payload"), dtype="<f8").reshape(shape)
        out[name] = arr.astype(np.float64)
    if offset != len(raw):
        raise ParameterError(
            f"{path}: {len(raw) - offset} trailing bytes after the last of {count} tensors"
        )
    return out


def save_checkpoint(path: str, params: ModelParams) -> None:
    write_named_tensors(path, {name: t.data for name, t in params.named().items()})


def load_checkpoint(path: str, config: ModelConfig) -> ModelParams:
    arrays = read_named_tensors(path)
    named = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    return ModelParams.from_named(config, named)
