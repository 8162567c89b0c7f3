import itertools
import math

import numpy as np
import pytest

from dualpath import numerics as nm
from dualpath.model import (
    ABLATION_FLAGS,
    ModelConfig,
    ModelParams,
    decode,
    double_direction_fusion,
    dp_gate,
    encode_temporal,
    forward,
    importance_weights,
    invert_tokens,
    load_checkpoint,
    ncorr_attention,
    parameter_layout,
    read_named_tensors,
    save_checkpoint,
    temporal_self_attention,
    write_named_tensors,
)
from dualpath.numerics import NumericError, ParameterError, ShapeError, Tensor


def small_config(**overrides):
    base = dict(
        n_nodes=4,
        n_features=3,
        lookback=6,
        horizon=1,
        d_model=8,
        n_heads=2,
        n_layers=1,
        ffd_hidden=8,
        topn_ratio=0.5,
    )
    base.update(overrides)
    return ModelConfig(**base)


# -- config validation ------------------------------------------------------


def test_config_rejects_bad_head_split():
    with pytest.raises(ParameterError):
        small_config(d_model=10, n_heads=4)


def test_config_rejects_unknown_flag():
    with pytest.raises(ParameterError):
        small_config(ablation={"no_such_flag"})


def test_config_rejects_removing_both_paths():
    with pytest.raises(ParameterError):
        small_config(ablation={"no_temporal_path", "no_feature_path"})


def test_config_rejects_bad_topn_ratio():
    with pytest.raises(ParameterError):
        small_config(topn_ratio=0.0)
    with pytest.raises(ParameterError):
        small_config(topn_ratio=1.5)


# -- invert_tokens -----------------------------------------------------------


def test_invert_tokens_hand_case():
    x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])  # 1 x 2 x 2: rows are time steps
    out = invert_tokens(x)
    assert out.data.tolist() == [[[1.0, 3.0], [2.0, 4.0]]]


def test_invert_tokens_involution_bitwise():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 4, 5)))
    assert np.array_equal(invert_tokens(invert_tokens(x)).data, x.data)


def test_invert_tokens_index_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4, 5))
    out = invert_tokens(Tensor(x)).data
    for n in range(3):
        for t in range(4):
            for f in range(5):
                assert out[n, f, t] == x[n, t, f]


def test_invert_tokens_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        invert_tokens(Tensor(np.zeros((3, 4))))


# -- importance weights -------------------------------------------------------


def test_importance_uniform_for_identical_feature_rows():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=0)
    row = np.linspace(-1, 1, cfg.lookback)
    x_inv = Tensor(np.tile(row, (cfg.n_nodes, cfg.n_features, 1)))
    w, _ = importance_weights(x_inv, params.layers[0])
    assert np.abs(w.data - 1.0 / cfg.n_features).max() < 1e-12


def test_importance_single_feature_is_one():
    cfg = small_config(n_features=1, topn_ratio=1.0)
    params = ModelParams.init(cfg, seed=0)
    rng = np.random.default_rng(2)
    x_inv = Tensor(rng.standard_normal((cfg.n_nodes, 1, cfg.lookback)))
    w, _ = importance_weights(x_inv, params.layers[0])
    assert np.allclose(w.data, 1.0)


def test_importance_sums_and_splice():
    cfg = small_config(n_nodes=2, n_features=3, lookback=4)
    params = ModelParams.init(cfg, seed=1)
    rng = np.random.default_rng(3)
    x_inv = Tensor(rng.standard_normal((2, 3, 4)))
    w, x_aug = importance_weights(x_inv, params.layers[0])
    assert np.abs(w.data.sum(axis=1) - 1.0).max() < 1e-9
    assert x_aug.shape == (2, 3, 5)
    assert np.array_equal(x_aug.data[:, :, 4], w.data)
    assert np.array_equal(x_aug.data[:, :, :4], x_inv.data)


# -- temporal self-attention ---------------------------------------------


def test_temporal_attention_single_token_equals_value_path():
    cfg = small_config(n_features=1, topn_ratio=1.0)
    params = ModelParams.init(cfg, seed=4)
    lp = params.layers[0]
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((cfg.n_nodes, 1, cfg.layer_input_width(0))))
    out = temporal_self_attention(x, lp, cfg.n_heads)
    expected = nm.matmul(nm.matmul(x, lp.w_v), lp.w_o).data
    assert np.abs(out.data - expected).max() < 1e-12


def test_temporal_attention_identical_tokens_identical_outputs():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=5)
    rng = np.random.default_rng(5)
    token = rng.standard_normal(cfg.layer_input_width(0))
    x = Tensor(np.tile(token, (cfg.n_nodes, cfg.n_features, 1)))
    out = temporal_self_attention(x, params.layers[0], cfg.n_heads).data
    spread = np.abs(out - out[:, :1, :]).max()
    assert spread < 1e-12


def test_temporal_attention_matches_loop_oracle():
    cfg = small_config(n_nodes=1, n_features=3, lookback=4, d_model=4, n_heads=1, ffd_hidden=4)
    params = ModelParams.init(cfg, seed=6)
    lp = params.layers[0]
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 3, cfg.layer_input_width(0)))

    q = x[0] @ lp.w_q.data
    k = x[0] @ lp.w_k.data
    v = x[0] @ lp.w_v.data
    scores = q @ k.T / math.sqrt(cfg.d_model)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    expected = (weights @ v) @ lp.w_o.data

    out = temporal_self_attention(Tensor(x), lp, cfg.n_heads).data[0]
    assert np.abs(out - expected).max() < 1e-10


# -- encode_temporal -----------------------------------------------------------


def test_encode_temporal_output_shape():
    for cfg in (small_config(), small_config(n_layers=2), small_config(ablation={"no_importance"})):
        params = ModelParams.init(cfg, seed=7)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((cfg.n_nodes, cfg.lookback, cfg.n_features)))
        z = encode_temporal(x, params.layers[0], cfg, 0)
        assert z.shape == (cfg.n_nodes, cfg.n_features, cfg.d_model)


def test_encode_temporal_gradient_matches_fd():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=8)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 6, 3)))

    def f(t):
        return nm.mean(encode_temporal(t, params.layers[0], cfg, 0))

    report = nm.grad_check(f, x)
    assert report.max_rel_err < 1e-4


def test_encode_temporal_ablated_block_is_affine():
    cfg = small_config(ablation={"no_itblock"})
    params = ModelParams.init(cfg, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 6, 3))
    alpha = 0.37

    def run(v):
        return encode_temporal(Tensor(v), params.layers[0], cfg, 0).data

    zero = run(np.zeros_like(x))
    lhs = run(alpha * x) - zero
    rhs = alpha * (run(x) - zero)
    assert np.abs(lhs - rhs).max() < 1e-9


# -- double-direction fusion -------------------------------------------------


def test_fusion_weight_rows_sum_to_one():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=10)
    lp = params.layers[0]
    rng = np.random.default_rng(10)
    z_i = Tensor(rng.standard_normal((4, 3, 8)))
    z = nm.transpose_last2(z_i)
    w_temp = nm.softmax_lastaxis(nm.matmul(nm.matmul(z, lp.fus_wq), nm.transpose_last2(nm.matmul(z_i, lp.fus_wki))))
    w_feat = nm.softmax_lastaxis(nm.matmul(nm.matmul(z_i, lp.fus_wqi), nm.transpose_last2(nm.matmul(z, lp.fus_wk))))
    assert np.abs(w_temp.data.sum(axis=-1) - 1.0).max() < 1e-9
    assert np.abs(w_feat.data.sum(axis=-1) - 1.0).max() < 1e-9


def test_fusion_single_feature_degenerates_to_z_row():
    cfg = small_config(n_features=1, topn_ratio=1.0)
    params = ModelParams.init(cfg, seed=11)
    rng = np.random.default_rng(11)
    z_i = Tensor(rng.standard_normal((cfg.n_nodes, 1, cfg.d_model)))
    h_temp, _ = double_direction_fusion(z_i, params.layers[0])
    assert np.abs(h_temp.data - z_i.data[:, 0, :]).max() < 1e-12


def test_fusion_matches_loop_oracle():
    cfg = small_config(n_nodes=2, n_features=3, d_model=4, n_heads=2, ffd_hidden=4)
    params = ModelParams.init(cfg, seed=12)
    lp = params.layers[0]
    rng = np.random.default_rng(12)
    z_i = rng.standard_normal((2, 3, 4))

    h_temp, h_feat = double_direction_fusion(Tensor(z_i), lp)

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    for n in range(2):
        z = z_i[n].T  # (D, F)
        q_f = z @ lp.fus_wq.data
        k_fi = z_i[n] @ lp.fus_wki.data
        q_fi = z_i[n] @ lp.fus_wqi.data
        k_f = z @ lp.fus_wk.data
        for d in range(4):
            w_row = softmax(q_f[d] @ k_fi.T)
            assert abs(h_temp.data[n, d] - (w_row * z[d]).sum()) < 1e-10
        for f in range(3):
            w_row = softmax(q_fi[f] @ k_f.T)
            assert abs(h_feat.data[n, f] - (w_row * z_i[n][f]).sum()) < 1e-10


# -- sparse node attention -------------------------------------------------


def test_ncorr_uniform_when_rows_identical():
    cfg = small_config(topn_ratio=1.0)
    params = ModelParams.init(cfg, seed=13)
    lp = params.layers[0]
    rng = np.random.default_rng(13)
    h = Tensor(np.tile(rng.standard_normal(cfg.d_model), (cfg.n_nodes, 1)))
    z_i = Tensor(rng.standard_normal((cfg.n_nodes, cfg.n_features, cfg.d_model)))
    _, attn = ncorr_attention(h, z_i, lp.qg_temp, lp.kg_temp, lp.vg, cfg.n_nodes, cfg.n_heads)
    assert np.abs(attn - 1.0 / cfg.n_nodes).max() < 1e-12


def test_ncorr_single_neighbor_is_one_hot():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=14)
    lp = params.layers[0]
    rng = np.random.default_rng(14)
    h = Tensor(rng.standard_normal((cfg.n_nodes, cfg.d_model)))
    z_i = Tensor(rng.standard_normal((cfg.n_nodes, cfg.n_features, cfg.d_model)))
    out, attn = ncorr_attention(h, z_i, lp.qg_temp, lp.kg_temp, lp.vg, 1, cfg.n_heads)
    assert np.array_equal(np.sort(attn, axis=1)[:, :-1], np.zeros((4, 3)))
    assert np.allclose(attn.sum(axis=1), 1.0)
    v = nm.matmul(z_i, lp.vg).data
    picks = attn.argmax(axis=1)
    for n in range(cfg.n_nodes):
        assert np.abs(out.data[n] - v[picks[n]]).max() < 1e-12


def test_ncorr_matches_mask_softmax_oracle_single_head():
    cfg = ModelConfig(
        n_nodes=5, n_features=3, lookback=6, d_model=8, n_heads=1, n_layers=1, topn_ratio=0.4
    )
    params = ModelParams.init(cfg, seed=15)
    lp = params.layers[0]
    rng = np.random.default_rng(15)
    h = rng.standard_normal((5, 8))
    z_i = rng.standard_normal((5, 3, 8))

    _, attn = ncorr_attention(Tensor(h), Tensor(z_i), lp.qg_temp, lp.kg_temp, lp.vg, 2, 1)

    scores = (h @ lp.qg_temp.data) @ (h @ lp.kg_temp.data).T / math.sqrt(8)
    expected = np.zeros((5, 5))
    for i in range(5):
        keep = np.argsort(-scores[i], kind="stable")[:2]
        row = np.full(5, -np.inf)
        row[keep] = scores[i, keep]
        e = np.exp(row - row[keep].max())
        expected[i] = e / e.sum()
    assert np.abs(attn - expected).max() < 1e-12
    assert ((attn > 0).sum(axis=1) == 2).all()


def test_ncorr_multi_head_rows_keep_exact_support():
    cfg = small_config(n_nodes=6, topn_ratio=0.34)  # ceil(.34*6) = 3
    params = ModelParams.init(cfg, seed=16)
    lp = params.layers[0]
    rng = np.random.default_rng(16)
    h = Tensor(rng.standard_normal((6, cfg.d_model)))
    z_i = Tensor(rng.standard_normal((6, cfg.n_features, cfg.d_model)))
    _, attn = ncorr_attention(h, z_i, lp.qg_temp, lp.kg_temp, lp.vg, cfg.n_keep, cfg.n_heads)
    assert ((attn > 0).sum(axis=1) == cfg.n_keep).all()
    assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-9


def _ncorr_reference(h, z_i, w_q, w_k, w_v, n_keep, n_heads):
    # the composition ncorr_attention replaced: a stable-argsort top-n mask,
    # dropped scores filled with -1e30, then a plain softmax
    n, f, _ = z_i.shape
    d_g = w_v.shape[1]
    dh = d_g // n_heads
    q = nm.permute(nm.reshape(nm.matmul(h, w_q), (n, n_heads, dh)), (1, 0, 2))
    k = nm.permute(nm.reshape(nm.matmul(h, w_k), (n, n_heads, dh)), (1, 0, 2))
    scores = nm.matmul(q, nm.transpose_last2(k)) * (1.0 / math.sqrt(dh))
    order = np.argsort(-scores.data.mean(axis=0), axis=-1, kind="stable")
    keep = np.zeros((n, n), dtype=bool)
    np.put_along_axis(keep, order[:, :n_keep], True, axis=-1)
    keep = np.broadcast_to(keep, scores.shape)
    attn = nm.softmax_lastaxis(scores * keep + np.where(keep, 0.0, -1e30))
    v = nm.matmul(z_i, w_v)
    v_heads = nm.reshape(nm.permute(nm.reshape(v, (n, f, n_heads, dh)), (2, 0, 1, 3)), (n_heads, n, f * dh))
    ctx = nm.matmul(attn, v_heads)
    out = nm.reshape(nm.permute(nm.reshape(ctx, (n_heads, n, f, dh)), (1, 2, 0, 3)), (n, f, d_g))
    return out, attn.data.mean(axis=0)


def test_ncorr_matches_reference_composition_bitwise_at_market_width():
    cfg = ModelConfig(
        n_nodes=200, n_features=4, lookback=6, d_model=16, n_heads=4, n_layers=1, topn_ratio=0.1
    )
    lp = ModelParams.init(cfg, seed=18).layers[0]
    rng = np.random.default_rng(18)
    h_data = rng.standard_normal((200, 16))
    z_data = rng.standard_normal((200, 4, 16))
    w = rng.standard_normal((200, 4, 16))
    results = []
    for fn in (ncorr_attention, _ncorr_reference):
        h, z_i = Tensor(h_data, requires_grad=True), Tensor(z_data, requires_grad=True)
        weights = [Tensor(t.data, requires_grad=True) for t in (lp.qg_temp, lp.kg_temp, lp.vg)]
        out, attn = fn(h, z_i, *weights, cfg.n_keep, cfg.n_heads)
        nm.sum_(out * w).backward()
        results.append([out.data, attn, h.grad, z_i.grad] + [t.grad for t in weights])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_ncorr_rejects_bad_n_keep():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=17)
    lp = params.layers[0]
    h = Tensor(np.zeros((4, 8)))
    z_i = Tensor(np.zeros((4, 3, 8)))
    with pytest.raises(ParameterError):
        ncorr_attention(h, z_i, lp.qg_temp, lp.kg_temp, lp.vg, 0, 2)
    with pytest.raises(ParameterError):
        ncorr_attention(h, z_i, lp.qg_temp, lp.kg_temp, lp.vg, 5, 2)


# -- gate ---------------------------------------------------------------------


def test_gate_zero_weights_annihilate():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=18)
    lp = params.layers[0]
    lp.ws_f.data[...] = 0.0
    lp.bs_f.data[...] = 0.0
    lp.ws_t.data[...] = 0.0
    lp.bs_t.data[...] = 0.0
    rng = np.random.default_rng(18)
    o = Tensor(rng.standard_normal((4, 3, 8)))
    merged = dp_gate(o, Tensor(rng.standard_normal((4, 3, 8))), lp)
    assert np.abs(merged.data).max() == 0.0


def test_gate_neutral_mix_is_average_of_gated_paths():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=19)
    lp = params.layers[0]
    lp.wm.data[...] = 0.0  # sigmoid(0) = 0.5
    rng = np.random.default_rng(19)
    o_f = Tensor(rng.standard_normal((4, 3, 8)))
    o_t = Tensor(rng.standard_normal((4, 3, 8)))
    merged = dp_gate(o_f, o_t, lp)
    g_f = np.tanh(o_f.data @ lp.ws_f.data + lp.bs_f.data) * o_f.data
    g_t = np.tanh(o_t.data @ lp.ws_t.data + lp.bs_t.data) * o_t.data
    assert np.abs(merged.data - 0.5 * (g_f + g_t)).max() < 1e-12


def test_gate_matches_elementwise_oracle():
    cfg = ModelConfig(n_nodes=2, n_features=2, lookback=4, d_model=3, n_heads=1, n_layers=1, topn_ratio=1.0)
    params = ModelParams.init(cfg, seed=20)
    lp = params.layers[0]
    rng = np.random.default_rng(20)
    o_f = rng.standard_normal((2, 2, 3))
    o_t = rng.standard_normal((2, 2, 3))
    merged = dp_gate(Tensor(o_f), Tensor(o_t), lp).data

    g_f = np.tanh(o_f @ lp.ws_f.data + lp.bs_f.data)
    g_t = np.tanh(o_t @ lp.ws_t.data + lp.bs_t.data)
    mix = 1.0 / (1.0 + np.exp(-(np.concatenate([o_f, o_t], axis=-1) @ lp.wm.data)))
    expected = g_f * o_f * mix + g_t * o_t * (1.0 - mix)
    assert np.abs(merged - expected).max() < 1e-12


def test_gate_ablations():
    rng = np.random.default_rng(21)
    o_f = Tensor(rng.standard_normal((2, 2, 3)))
    o_t = Tensor(rng.standard_normal((2, 2, 3)))

    avg_cfg = ModelConfig(
        n_nodes=2, n_features=2, lookback=4, d_model=3, n_heads=1, n_layers=1,
        topn_ratio=1.0, ablation={"no_dpgate"},
    )
    lp = ModelParams.init(avg_cfg, seed=21).layers[0]
    merged = dp_gate(o_f, o_t, lp, avg_cfg.ablation)
    assert np.abs(merged.data - 0.5 * (o_f.data + o_t.data)).max() < 1e-12

    feat_cfg = ModelConfig(
        n_nodes=2, n_features=2, lookback=4, d_model=3, n_heads=1, n_layers=1,
        topn_ratio=1.0, ablation={"no_temporal_path"},
    )
    lp = ModelParams.init(feat_cfg, seed=21).layers[0]
    merged = dp_gate(o_f, None, lp, feat_cfg.ablation)
    expected = np.tanh(o_f.data @ lp.ws_f.data + lp.bs_f.data) * o_f.data
    assert np.abs(merged.data - expected).max() < 1e-12

    temp_cfg = ModelConfig(
        n_nodes=2, n_features=2, lookback=4, d_model=3, n_heads=1, n_layers=1,
        topn_ratio=1.0, ablation={"no_feature_path"},
    )
    lp = ModelParams.init(temp_cfg, seed=21).layers[0]
    merged = dp_gate(None, o_t, lp, temp_cfg.ablation)
    expected = np.tanh(o_t.data @ lp.ws_t.data + lp.bs_t.data) * o_t.data
    assert np.abs(merged.data - expected).max() < 1e-12

    # without the gate a lone path has no gate weights and passes through unchanged
    for kept, dropped in ((o_f, "no_temporal_path"), (o_t, "no_feature_path")):
        cfg = ModelConfig(
            n_nodes=2, n_features=2, lookback=4, d_model=3, n_heads=1, n_layers=1,
            topn_ratio=1.0, ablation={"no_dpgate", dropped},
        )
        lp = ModelParams.init(cfg, seed=21).layers[0]
        paths = (kept, None) if dropped == "no_temporal_path" else (None, kept)
        assert dp_gate(*paths, lp, cfg.ablation) is kept


def test_gate_shape_mismatch():
    cfg = small_config()
    lp = ModelParams.init(cfg, seed=22).layers[0]
    with pytest.raises(ShapeError):
        dp_gate(Tensor(np.zeros((2, 3, 8))), Tensor(np.zeros((2, 4, 8))), lp)


# -- decoder -------------------------------------------------------------------


def test_decode_deviation_bound():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=23)
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = Tensor(rng.standard_normal((4, 3, 8)) * 5)
        y_hat, mean_part, _ = decode(m, params.decoder)
        gap = y_hat.data - mean_part.data
        assert (gap >= math.exp(-1.0) - 1e-12).all()
        assert (gap <= math.exp(1.0) + 1e-12).all()


def test_decode_zero_input_zero_bias():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=24)
    m = Tensor(np.zeros((4, 3, 8)))
    y_hat, mean_part, dev = decode(m, params.decoder)
    assert np.abs(mean_part.data).max() == 0.0
    assert np.abs(dev.data).max() == 0.0
    assert np.abs(y_hat.data - 1.0).max() == 0.0


def test_decode_matches_composition_oracle():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=25)
    dec = params.decoder
    rng = np.random.default_rng(25)
    m = rng.standard_normal((4, 3, 8))

    scores = (m @ dec.w_token.data)[:, :, 0]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    pooled = (m * w[:, :, None]).sum(axis=1)
    mean_part = pooled @ dec.w_mean.data + dec.b_mean.data
    dev = np.tanh(pooled @ dec.w_dev.data + dec.b_dev.data)
    expected = mean_part + np.exp(dev)

    y_hat, _, _ = decode(Tensor(m), dec)
    assert np.abs(y_hat.data - expected).max() < 1e-12


# -- full forward ---------------------------------------------------------------


def test_forward_shapes_and_sparsity_contract():
    cfg = ModelConfig(
        n_nodes=20, n_features=5, lookback=8, horizon=2, d_model=16, n_heads=4,
        n_layers=2, topn_ratio=0.1,
    )
    params = ModelParams.init(cfg, seed=26)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((20, 8, 5))
    y_hat, maps = forward(x, params, cfg)
    assert y_hat.shape == (20, 2)
    assert len(maps.feature) == len(maps.temporal) == 2
    for matrix in maps.feature + maps.temporal:
        assert matrix.shape == (20, 20)
        assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-6
        assert ((matrix > 0).sum(axis=1) == cfg.n_keep).all()
    assert cfg.n_keep == 2


def test_forward_permutation_equivariance():
    cfg = ModelConfig(n_nodes=6, n_features=4, lookback=7, d_model=8, n_heads=2, n_layers=1, topn_ratio=0.34)
    params = ModelParams.init(cfg, seed=27)
    rng = np.random.default_rng(27)
    x = rng.standard_normal((6, 7, 4))
    base, _ = forward(x, params, cfg)
    for _ in range(5):
        perm = rng.permutation(6)
        permuted, _ = forward(x[perm], params, cfg)
        assert np.abs(permuted.data - base.data[perm]).max() < 1e-9


def test_forward_two_layer_gradient_matches_fd():
    cfg = ModelConfig(
        n_nodes=3, n_features=2, lookback=5, horizon=1, d_model=4, n_heads=2,
        n_layers=2, ffd_hidden=4, topn_ratio=0.5,
    )
    params = ModelParams.init(cfg, seed=40)
    rng = np.random.default_rng(40)
    x = Tensor(rng.standard_normal((3, 5, 2)))

    def f(t):
        y_hat, _ = forward(t, params, cfg)
        return nm.mean(y_hat)

    report = nm.grad_check(f, x)
    assert report.max_rel_err < 1e-4


def test_forward_rejects_nonfinite_input():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=28)
    x = np.zeros((4, 6, 3))
    x[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        forward(x, params, cfg)


def test_forward_rejects_wrong_shape():
    cfg = small_config()
    params = ModelParams.init(cfg, seed=29)
    with pytest.raises(ShapeError):
        forward(np.zeros((4, 6, 4)), params, cfg)


def test_forward_thread_safe_with_shared_params():
    from concurrent.futures import ThreadPoolExecutor

    cfg = small_config()
    params = ModelParams.init(cfg, seed=50).detached()
    rng = np.random.default_rng(50)
    panels = [rng.standard_normal((4, 6, 3)) for _ in range(8)]
    expected = [forward(x, params, cfg)[0].data for x in panels]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda x: forward(x, params, cfg)[0].data, panels))
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_forward_single_node_self_loop():
    cfg = ModelConfig(n_nodes=1, n_features=3, lookback=5, d_model=8, n_heads=2, n_layers=1, topn_ratio=1.0)
    params = ModelParams.init(cfg, seed=30)
    rng = np.random.default_rng(30)
    y_hat, maps = forward(rng.standard_normal((1, 5, 3)), params, cfg)
    assert y_hat.shape == (1, 1)
    assert maps.feature[0].tolist() == [[1.0]]


@pytest.mark.parametrize("flag", ABLATION_FLAGS)
def test_ablations_change_output(flag):
    base_cfg = small_config()
    abl_cfg = small_config(ablation={flag})
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 6, 3))
    base, base_maps = forward(x, ModelParams.init(base_cfg, seed=31), base_cfg)
    ablated, abl_maps = forward(x, ModelParams.init(abl_cfg, seed=31), abl_cfg)
    assert np.abs(base.data - ablated.data).max() > 1e-9
    if flag == "no_temporal_path":
        assert abl_maps.temporal[0] is None and abl_maps.feature[0] is not None
    if flag == "no_feature_path":
        assert abl_maps.feature[0] is None and abl_maps.temporal[0] is not None


ABLATION_SUBSETS = [
    set(flags)
    for k in range(len(ABLATION_FLAGS) + 1)
    for flags in itertools.combinations(ABLATION_FLAGS, k)
]
ACCEPTED_ABLATIONS = [
    flags for flags in ABLATION_SUBSETS if not {"no_temporal_path", "no_feature_path"} <= flags
]


def test_config_accepts_exactly_the_subsets_keeping_a_path():
    assert len(ACCEPTED_ABLATIONS) == 24
    for flags in ABLATION_SUBSETS:
        if flags in ACCEPTED_ABLATIONS:
            small_config(ablation=flags)
        else:
            with pytest.raises(ParameterError, match="both correlation paths"):
                small_config(ablation=flags)


@pytest.mark.parametrize("flags", ACCEPTED_ABLATIONS, ids=lambda f: "+".join(sorted(f)) or "full")
def test_every_accepted_ablation_runs_and_trains_every_parameter(flags):
    cfg = small_config(n_layers=2, ablation=flags)
    params = ModelParams.init(cfg, seed=38)
    x = np.random.default_rng(38).standard_normal((4, 6, 3))
    y_hat, maps = forward(x, params, cfg)
    assert np.isfinite(y_hat.data).all()
    assert (maps.feature[0] is None) == ("no_feature_path" in flags)
    assert (maps.temporal[0] is None) == ("no_temporal_path" in flags)
    nm.sum_(y_hat * Tensor(np.linspace(-1.0, 1.0, 4)[:, None])).backward()
    # a parameter the graph never reaches keeps grad None (imp_b2's is an exact
    # zero by softmax shift invariance, so only reachability is asserted)
    for name, t in params.named().items():
        assert t.grad is not None and np.isfinite(t.grad).all(), name


def test_ablated_layouts_have_no_orphan_parameters():
    names_full = set(ModelParams.init(small_config(), seed=0).named())
    gate_free = set(ModelParams.init(small_config(ablation={"no_dpgate"}), seed=0).named())
    assert not any(".wm" in n or ".ws_" in n or ".bs_" in n for n in gate_free)
    assert gate_free < names_full
    no_temp = set(ModelParams.init(small_config(ablation={"no_temporal_path"}), seed=0).named())
    assert not any("qg_temp" in n or "kg_temp" in n or "ws_t" in n for n in no_temp)
    no_it = set(ModelParams.init(small_config(ablation={"no_itblock"}), seed=0).named())
    assert not any(".w_q" in n or "imp_" in n or "ffd1" in n for n in no_it)
    assert any("res_w" in n for n in no_it)


@pytest.mark.parametrize("flag", [None, *sorted(ABLATION_FLAGS)])
def test_named_follows_parameter_layout(flag):
    cfg = small_config(n_layers=2, ablation={flag} if flag else set())
    params = ModelParams.init(cfg, seed=0)
    layout_names = [name for name, _, _ in parameter_layout(cfg)]
    assert list(params.named()) == layout_names
    assert list(params.detached().named()) == layout_names


def test_layer_views_share_the_named_tensors():
    params = ModelParams.init(small_config(n_layers=2), seed=0)
    named = params.named()
    assert params.layers[0].w_q is named["enc0.w_q"]
    assert params.layers[1].vg is named["enc1.vg"]
    assert params.decoder.w_dev is named["dec.w_dev"]
    assert list(params.tensors()) == list(named.values())
    # the importance MLP exists in layer 0 only
    assert hasattr(params.layers[0], "imp_w1")
    assert not hasattr(params.layers[1], "imp_w1")


# -- checkpoint --------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = small_config(n_layers=2)
    params = ModelParams.init(cfg, seed=32)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params)
    loaded = load_checkpoint(path, cfg)
    for name, t in params.named().items():
        assert np.array_equal(loaded.named()[name].data, t.data), name


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = small_config()
    params = ModelParams.init(cfg, seed=33)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(p1, params)
    save_checkpoint(p2, params)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_wrong_config(tmp_path):
    cfg = small_config()
    params = ModelParams.init(cfg, seed=34)
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params)
    other = small_config(d_model=16, ffd_hidden=16)
    with pytest.raises((ParameterError, ShapeError)):
        load_checkpoint(path, other)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ParameterError):
        read_named_tensors(str(path))


def test_checkpoint_truncated_rejected(tmp_path):
    params = ModelParams.init(small_config(), seed=35)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), params)
    raw = path.read_bytes()
    for cut in (12, 20, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ParameterError, match="truncated"):
            read_named_tensors(str(path))


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    params = ModelParams.init(small_config(), seed=36)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), params)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ParameterError, match="8 trailing bytes"):
        read_named_tensors(str(path))


def test_checkpoint_in_older_tensor_order_loads_and_scores_identically(tmp_path):
    # earlier checkpoints stored the fusion maps as fus_wq, fus_wk, fus_wqi, fus_wki
    cfg = small_config()
    params = ModelParams.init(cfg, seed=37)
    names = list(params.named())
    i = names.index("enc0.fus_wq")
    assert names[i : i + 4] == ["enc0.fus_wq", "enc0.fus_wki", "enc0.fus_wqi", "enc0.fus_wk"]
    names[i : i + 4] = ["enc0.fus_wq", "enc0.fus_wk", "enc0.fus_wqi", "enc0.fus_wki"]
    path = str(tmp_path / "older.bin")
    write_named_tensors(path, {name: params.named()[name].data for name in names})
    assert list(read_named_tensors(path)) == names

    loaded = load_checkpoint(path, cfg)
    assert list(loaded.named()) == [name for name, _, _ in parameter_layout(cfg)]
    x = np.random.default_rng(37).standard_normal((4, 6, 3))
    expected, _ = forward(x, params, cfg)
    got, _ = forward(x, loaded, cfg)
    assert np.array_equal(got.data, expected.data)
