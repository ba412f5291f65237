from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

from biased_consensus import (
    ConfigError,
    Correct,
    DegenerateSystem,
    FailureModel,
    FullValue,
    InvalidVariant,
    OptimizerConfig,
    ResiliencyViolation,
    Scenario,
    ScenarioInvalid,
    Seeded,
    Variant,
    table_validity,
    validate_config,
    validate_scenario,
)
from biased_consensus.simnet import DEFAULT_EVENT_BUDGET

V = b"v"


def _cfg(n, f, model, **kw):
    return OptimizerConfig(n=n, f=f, preferred=FullValue(V), model=model, **kw)


def _oracle_tolerates(n, f, model, straw_man=False, sync=False) -> bool:
    """The resiliency inequalities, restated independently."""
    if model is FailureModel.BENIGN:
        return 2 * f < n
    if model is FailureModel.BYZANTINE_CLASSICAL:
        if straw_man or sync:
            return 3 * f < n
        return 4 * f < n
    return 3 * f < n


def test_resiliency_sweep_matches_inequalities():
    for n in range(2, 17):
        for f in range(0, n + 1):
            for model in FailureModel:
                cfg = _cfg(n, f, model)
                if _oracle_tolerates(n, f, model):
                    assert validate_config(cfg) is cfg
                else:
                    with pytest.raises(ResiliencyViolation):
                        validate_config(cfg)


def _reference_verdict(cfg, base):
    """What validate_scenario refused an otherwise well-formed scenario with
    before the bounds became rows of one table: each variant's own fit check,
    the per-model inequalities and the model's one concrete base.  Returns the
    error type, or None for accepted."""
    classical = cfg.model is FailureModel.BYZANTINE_CLASSICAL
    if cfg.n < 2:
        return DegenerateSystem
    if cfg.f < 0:
        return ConfigError
    if cfg.variant is Variant.PROOF_AWARE and cfg.model is not FailureModel.BYZANTINE_EXTERNAL:
        return InvalidVariant
    if cfg.sync_timeout is not None and not classical:
        return InvalidVariant
    if cfg.straw_man and not (classical and cfg.sync_timeout is None):
        return InvalidVariant
    if not _oracle_tolerates(cfg.n, cfg.f, cfg.model, cfg.straw_man, cfg.sync_timeout is not None):
        return ResiliencyViolation
    if base == "oracle":
        return None
    wanted = {
        FailureModel.BENIGN: "floodset",
        FailureModel.BYZANTINE_CLASSICAL: "phase_king",
        FailureModel.BYZANTINE_EXTERNAL: "eig",
    }[cfg.model]
    if base != wanted:
        return ScenarioInvalid
    if base == "eig" and not cfg.binary_domain:
        return ScenarioInvalid
    if base == "eig" and math.perm(cfg.n, cfg.f + 1) > DEFAULT_EVENT_BUDGET:
        return ScenarioInvalid
    if base == "phase_king" and cfg.n <= 4 * cfg.f:
        return ScenarioInvalid
    return None


def test_every_configuration_keeps_its_verdict(monkeypatch):
    """n from 1 to 20, f from -1 to n+1, every model, variant, flag and base
    name, against the rules the bounds table replaced: the same verdict and
    the same error type, never a KeyError or TypeError."""
    monkeypatch.delenv("SIM_EVENT_BUDGET", raising=False)
    verdicts = Counter()
    for n in range(1, 21):
        values, faults = (FullValue(V),) * n, (Correct(),) * n
        for f, model, variant, timeout, straw_man, binary, base in itertools.product(
            range(-1, n + 2),
            FailureModel,
            Variant,
            (None, 1.0),
            (False, True),
            (False, True),
            ("oracle", "floodset", "phase_king", "eig", "paxos"),
        ):
            cfg = OptimizerConfig(
                n, f, FullValue(V), model, variant, timeout, binary, straw_man
            )
            sc = Scenario(cfg, values, faults, Seeded(0), base=base)
            try:
                validate_scenario(sc)
                got = None
            except (ConfigError, ScenarioInvalid) as e:
                got = type(e)
            assert got is _reference_verdict(cfg, base), (cfg, base, got)
            verdicts[got] += 1
    assert verdicts == {
        None: 1_648,
        InvalidVariant: 44_460,
        ResiliencyViolation: 10_100,
        ConfigError: 4_560,
        ScenarioInvalid: 3_072,
        DegenerateSystem: 960,
    }


def test_straw_man_relaxes_classical_bound_only():
    ok = _cfg(4, 1, FailureModel.BYZANTINE_CLASSICAL, straw_man=True)
    assert validate_config(ok) is ok
    with pytest.raises(ResiliencyViolation):
        validate_config(_cfg(4, 1, FailureModel.BYZANTINE_CLASSICAL))
    # 3f < n still binds under the straw man.
    with pytest.raises(ResiliencyViolation):
        validate_config(_cfg(3, 1, FailureModel.BYZANTINE_CLASSICAL, straw_man=True))


@pytest.mark.parametrize(
    "model, kw",
    [
        (FailureModel.BYZANTINE_CLASSICAL, {"sync_timeout": 1.0}),
        (FailureModel.BYZANTINE_EXTERNAL, {"variant": Variant.PROOF_AWARE}),
        (FailureModel.BYZANTINE_EXTERNAL, {}),
        (FailureModel.BENIGN, {}),
    ],
    ids=["timeout", "proof-aware", "external", "benign"],
)
def test_straw_man_fits_only_the_classical_vote_rule(model, kw):
    """Anywhere but the proof-oblivious classical rule without a timeout the
    presence rule would never run: the flag is refused, not ignored."""
    with pytest.raises(InvalidVariant, match="straw man"):
        validate_config(_cfg(4, 1, model, straw_man=True, **kw))


def test_timeout_variant_is_classical_only_and_relaxed():
    ok = _cfg(4, 1, FailureModel.BYZANTINE_CLASSICAL, sync_timeout=10)
    assert validate_config(ok) is ok
    with pytest.raises(InvalidVariant):
        validate_config(_cfg(4, 1, FailureModel.BENIGN, sync_timeout=10))
    with pytest.raises(InvalidVariant):
        validate_config(_cfg(4, 1, FailureModel.BYZANTINE_EXTERNAL, sync_timeout=10))


def test_proof_aware_requires_external_model():
    ok = _cfg(4, 1, FailureModel.BYZANTINE_EXTERNAL, variant=Variant.PROOF_AWARE)
    assert validate_config(ok) is ok
    for model in (FailureModel.BENIGN, FailureModel.BYZANTINE_CLASSICAL):
        with pytest.raises(InvalidVariant):
            validate_config(_cfg(5, 1, model, variant=Variant.PROOF_AWARE))


def test_degenerate_and_negative():
    with pytest.raises(DegenerateSystem):
        validate_config(_cfg(1, 0, FailureModel.BENIGN))
    with pytest.raises(ConfigError):
        validate_config(_cfg(3, -1, FailureModel.BENIGN))


def test_validate_is_idempotent():
    cfg = _cfg(7, 2, FailureModel.BYZANTINE_EXTERNAL)
    assert validate_config(validate_config(cfg)) is cfg


def test_threshold_property():
    assert _cfg(7, 2, FailureModel.BYZANTINE_EXTERNAL).threshold == 5
    assert _cfg(3, 1, FailureModel.BENIGN).threshold == 2


def test_full_value_requires_payload():
    with pytest.raises(ValueError):
        FullValue(b"")
    fv = FullValue(V, b"proofproof")
    assert fv.val == V and fv.proof == b"proofproof"


def test_full_value_equality_ignores_proof():
    """Payload identity is what consensus is about; proofs ride along."""
    assert FullValue(V, b"a") == FullValue(V, b"b")
    assert FullValue(V) != FullValue(b"u")


def test_table_validity_default_verdict():
    valid = table_validity({b"bad": False}, default=True)
    assert valid(FullValue(b"good"))
    assert not valid(FullValue(b"bad"))
    strict = table_validity({b"ok": True}, default=False)
    assert not strict(FullValue(b"other"))


def test_error_taxonomy():
    assert issubclass(ResiliencyViolation, ConfigError)
    assert issubclass(DegenerateSystem, ConfigError)
    assert issubclass(InvalidVariant, ConfigError)
