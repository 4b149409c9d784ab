import pytest

from cardocr import recognize, synth


@pytest.fixture(scope="session")
def store():
    """The default font-derived template store (73 classes x 10 templates)."""
    return synth.build_font_store()


@pytest.fixture(scope="session")
def store_dir(store, tmp_path_factory):
    """The same store on disk, for CLI-level tests."""
    directory = tmp_path_factory.mktemp("templates")
    recognize.save_store(store, directory)
    return str(directory)
