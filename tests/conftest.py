from __future__ import annotations

import numpy as np
import pytest

import street_scene


@pytest.fixture(scope="session", autouse=True)
def model_cache_home(tmp_path_factory):
    """Every model cache entry the tests make, CLI subprocesses' included,
    goes under a directory of this session, not the real ``~/.cache``."""
    home = tmp_path_factory.mktemp("xdg_cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home


@pytest.fixture(scope="session")
def fixture_store():
    return street_scene.build_store()


@pytest.fixture(scope="session")
def fixture_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("street_scene")
    truth_path, prediction_paths = street_scene.write_fixture_files(directory)
    return {"truth": truth_path, "predictions": prediction_paths,
            "directory": directory}


@pytest.fixture(scope="session")
def fixture_model_file(fixture_store, tmp_path_factory):
    from labeleval.embeddings import save_text_model

    path = tmp_path_factory.mktemp("model") / "fixture_model.txt"
    save_text_model(fixture_store, path)
    return path


@pytest.fixture
def tiny_store():
    """2-d store with easy geometry: unit axes plus one diagonal."""
    from labeleval.embeddings import EmbeddingStore

    entries = [
        ("east", np.array([1.0, 0.0], dtype=np.float32)),
        ("north", np.array([0.0, 1.0], dtype=np.float32)),
        ("diagonal", np.array([3.0, 4.0], dtype=np.float32)),
    ]
    return EmbeddingStore(entries, dim=2, source_path="<tiny>")
