import numpy as np
import pytest


def read_csv(path):
    """Read one of our CSVs (# metadata block + header row) into a dict."""
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2).T
    return dict(zip(names, data))


#: the text of every config parsed in this session so far, which the last
#: test of ``test_config`` checks against the configparser reference
PARSED_CONFIGS = []


@pytest.fixture(autouse=True, scope="session")
def _record_parsed_configs():
    from remag import config

    read = config._read_ini

    def recording(text, source):
        PARSED_CONFIGS.append(text)
        return read(text, source)

    patch = pytest.MonkeyPatch()
    patch.setattr(config, "_read_ini", recording)
    yield
    patch.undo()
