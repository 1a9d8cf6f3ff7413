"""Byte identity as a test: every program output digested by
``output_digests.py`` matches the committed listing ``output_digests.txt``.

A change that alters an output rewrites the listing with
``python tests/output_digests.py --write`` and names the changed labels.
"""

import os

import output_digests


def test_outputs_match_the_committed_listing():
    with open(output_digests.LISTING, encoding="utf-8") as fh:
        header, _, listing = fh.read().partition("\n")
    assert header == output_digests.version_header(), (
        f"the listing was made by {header[2:]!r}, this is {output_digests.version_header()[2:]!r}:"
        " digests are compared on the version that made them"
    )
    run = output_digests.digest_listing(os.path.join(output_digests.HERE, "output_digests.py"))
    fresh = run.communicate()[0]
    assert run.returncode == 0, "the digest run failed"
    differ = output_digests.differing(listing, fresh)
    assert not differ, (
        f"{len(differ)} of {len(output_digests.labelled(listing))} outputs differ from the listing: "
        + "; ".join(differ)
    )
