"""The records that flow one per comment, mention, table row or news
comment through the pipeline are slotted and mutable: a frozen dataclass sets each field
through object.__setattr__ and is several times slower to build."""

import pytest

from newsgeo.corpus_ingest import Comment
from newsgeo.states import (FirstExposure, NewsComment, Reply, Residual,
                            SubredditCount, UrlMention, UserLocation)


@pytest.mark.parametrize("cls", [Comment, UrlMention, SubredditCount, Reply,
                                 NewsComment, UserLocation, FirstExposure,
                                 Residual],
                         ids=lambda cls: cls.__name__)
def test_record_is_slotted_and_not_frozen(cls):
    assert "__slots__" in vars(cls)
    assert not cls.__dataclass_params__.frozen
