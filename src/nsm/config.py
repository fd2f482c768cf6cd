"""Run configuration: flat key=value files plus CLI overrides.

The file format is deliberately tiny: one `key = value` per line, '#'
comments, blank lines ignored. The key set is closed; unknown keys raise
ConfigError naming the offender. CLI flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)   # set_key names the line and the key


@dataclass
class TrainConfig:
    """What the training loop reads; -1 switches a schedule or a cap off."""
    epochs: int = 1
    batch_size: int = 100
    optimizer: str = "sgd"              # sgd | adam
    lr: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    # linear lr decay to zero between decay_start_epoch and epochs, with the
    # first-moment coefficient dropping to late_beta1 over the same span
    decay_start_epoch: int = -1         # -1 disables the schedule
    late_beta1: float = 0.5
    max_iterations: int = -1            # global cap on minibatches; -1 means none
    eval_every: int = 1                 # epochs between test evaluations
    mc_samples: int = 10
    record_percentiles: bool = True


@dataclass
class RunConfig(TrainConfig):
    """A whole run: the training settings plus model, noise, data and seed."""
    preset: str = "mlp-784-300-300-300-10"
    model: str = "nsm"
    dataset: str = "synthetic:two-gaussians"
    data_dir: str = ""
    noise: str = "bernoulli"            # gaussian | bernoulli
    noise_param: float = 0.5            # variance for gaussian, rate for bernoulli
    site: str = "neuron"                # neuron | synapse
    seed: int = 0
    head_bias: bool = True
    init_batch: int = 100               # 0 disables data-dependent init
    dim: int = 16                       # synthetic feature count
    train_size: int = 2000
    test_size: int = 500

    def validate(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.mc_samples <= 0:
            raise ConfigError("mc_samples must be positive")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.test_size < 1:
            raise ConfigError("test_size must be >= 1")
        if self.noise not in ("gaussian", "bernoulli"):
            raise ConfigError(f"unknown noise kind {self.noise!r}")
        if self.site not in ("neuron", "synapse"):
            raise ConfigError(f"unknown noise site {self.site!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        set_key(cfg, key, value, where=f"line {lineno}")
    return cfg


def set_key(cfg: RunConfig, key: str, value: str, where: str = "flag"):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        if kind in ("bool", bool):
            parsed = _parse_bool(value)
        elif kind in ("int", int):
            parsed = int(value)
        elif kind in ("float", float):
            parsed = float(value)
        else:
            parsed = value
    except ValueError:
        raise ConfigError(f"{where}: bad value {value!r} for {key}")
    setattr(cfg, key, parsed)


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path) as f:
        return parse_config_text(f.read(), base)


def config_lines(cfg: RunConfig) -> str:
    """Canonical echo of the resolved configuration."""
    return "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(RunConfig))
