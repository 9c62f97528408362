"""Grad-check's probe-batched finite differences against the per-element loop."""

import numpy as np
import pytest

from prvr import autodiff as ad
from prvr import gradcheck
from prvr.cli import main
from prvr.errors import NumericalError

from tests.oracles import loop_fd_losses


@pytest.mark.parametrize("seed", range(1000, 1005))
def test_probe_losses_equal_per_element_loop(seed):
    # tolerance 0 on instances of the ACCEPT-01 suite (seed 1): stacking
    # the 2n perturbed copies of a tensor on a probe axis keeps every bit
    # of each +h and -h loss
    params, build_loss = gradcheck._random_instance(seed)
    for name in params.names():
        np.testing.assert_array_equal(gradcheck.probe_losses(params, build_loss, name),
                                      loop_fd_losses(params, build_loss, name), err_msg=name)


def poison_one_probe(monkeypatch, probe):
    """Make the untraced loss NaN at one probe of every tensor."""
    real = gradcheck._random_instance

    def instance(seed):
        params, build_loss = real(seed)

        def poisoned(p):
            loss = build_loss(p)
            if isinstance(loss, ad.Var):
                return loss
            loss = np.array(loss)
            loss.reshape(-1)[probe] = np.nan
            return loss

        return params, poisoned

    monkeypatch.setattr(gradcheck, "_random_instance", instance)


@pytest.mark.parametrize("probe", (0, 5))
def test_non_finite_difference_fails_the_check(monkeypatch, probe):
    poison_one_probe(monkeypatch, probe)
    with pytest.raises(NumericalError, match="text_proj_w"):
        gradcheck.check_instance(321)


def test_non_finite_difference_exits_4(monkeypatch, capsys):
    poison_one_probe(monkeypatch, 3)
    assert main(["grad-check", "--seed", "3", "--instances", "1"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "finite difference for text_proj_w is non-finite" in err[0]
