"""Time one cold set-up of a training cell, as a fresh process pays it:
import the package, load and z-normalize the dataset, build the model spec,
initialize parameters and optimizer state, up to the first training step.

Usage: python3 perfbench/setup_probe.py DATA_ROOT DATASET ARCH SEED
Prints {"setup_s": <seconds>} on stdout.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leakysinelu import cli  # noqa: E402,F401  - the user's entry point
from leakysinelu.bench import TrainConfig, build_spec  # noqa: E402
from leakysinelu.data import load_dataset_pair, znormalize  # noqa: E402
from leakysinelu.models import init_params  # noqa: E402


def main(data_root: str, dataset: str, arch: str, seed: str) -> None:
    config = TrainConfig.for_architecture(arch, "leakysinelu", seed=int(seed))
    train, test = load_dataset_pair(data_root, dataset)
    train = znormalize(train, config.znorm)
    znormalize(test, config.znorm)
    spec = build_spec(config, train)
    state = init_params(spec, config.seed)
    config.make_optimizer().init_state(state.params)
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


if __name__ == "__main__":
    main(*sys.argv[1:])
