"""A lab that computes a wrong gradient or a false bound must make the
benchmark report error_rate > 0 and exit non-zero. The faults are wrapped
around the lab's functions here; the lab's source is not edited."""

import dataclasses
import json

import run
from dul_lab import losses, theory


def _run(capsys, workload):
    rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    error_rate = next(float(l.split()[1]) for l in lines if l.startswith("error_rate "))
    return rc, json.loads(lines[-1]), error_rate, lines


def test_clean_run_passes(capsys):
    rc, result, error_rate, _ = _run(capsys, "train-softmax")
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert error_rate == 0


def test_perturbed_gradient_is_caught(monkeypatch, capsys):
    real = losses.loss_backward

    def skewed(*args, **kwargs):
        value, grads = real(*args, **kwargs)
        return value, [(gw * 1.01, gb * 1.01) for gw, gb in grads]

    monkeypatch.setattr(losses, "loss_backward", skewed)
    rc, result, error_rate, lines = _run(capsys, "train-softmax")
    assert rc != 0 and not result["correct"] and result["failed"] > 0
    assert error_rate > 0
    assert any(l.startswith("FAILED none.fd_gradient") for l in lines)


def test_false_bound_is_caught(monkeypatch, capsys):
    real = theory.theorem1_bound

    def denied(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), holds=False)

    monkeypatch.setattr(theory, "theorem1_bound", denied)
    rc, result, error_rate, lines = _run(capsys, "certify")
    assert rc != 0 and not result["correct"]
    assert error_rate > 0
    assert any(l.startswith("FAILED none.bound_eps0.holds") for l in lines)
