import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from synthdata import make_articles, make_parallel, make_world  # noqa: E402

from bimine.classifier import train_model
from bimine.lexicon import seed_tokens, train_lexicon


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid})")


@pytest.fixture(scope="session")
def world():
    return make_world(seed=7)


@pytest.fixture(scope="session")
def small_seed_corpus(world):
    """600-pair parallel corpus for fast lexicon/classifier tests."""
    return make_parallel(world, random.Random(101), 600)


@pytest.fixture(scope="session")
def small_lexicon(small_seed_corpus):
    return train_lexicon(seed_tokens(small_seed_corpus), iterations=6, prune_below=1e-4)


@pytest.fixture(scope="session")
def small_model(small_seed_corpus, small_lexicon):
    return train_model(seed_tokens(small_seed_corpus), small_lexicon, ("pl", "en"), neg_per_pos=3,
                       epochs=12, learning_rate=0.1, margin_reg=1e-4, seed_rng=5)


@pytest.fixture(scope="session")
def small_articles(world, small_seed_corpus):
    """50 article pairs with known ground truth, built on the small corpus."""
    corpus = make_parallel(world, random.Random(303), 50 * 12)
    return make_articles(world, random.Random(404), corpus,
                         n_articles=50, sentences_per_article=12)
