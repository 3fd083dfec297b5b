import pytest

from fracmom.model import ModelConfig


@pytest.fixture
def draws(monkeypatch):
    """The seed of every realization drawn while the test runs."""
    seeds = []
    sample = ModelConfig.sample

    def counting(self, seed):
        seeds.append(seed)
        return sample(self, seed)
    monkeypatch.setattr(ModelConfig, "sample", counting)
    return seeds
