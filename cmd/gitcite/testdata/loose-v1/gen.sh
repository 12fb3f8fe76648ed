#!/usr/bin/env bash
# gen.sh — writes the loose-v1 fixture: a repository in the loose
# one-file-per-object layout (.gitcite/objects/ab/cdef…), as `gitcite init`
# without -pack created it before every repository wrote packs, plus the
# listing of `cite -rev C -path P` for every commit C and every path P.
#
#   bash gen.sh GITCITE_BINARY OUT_DIR
#
# GITCITE_BINARY must be a gitcite built from a commit whose `init` still
# writes loose objects. OUT_DIR receives repo/ and listing.txt. The fixture
# is frozen: never regenerate it with a newer binary (see README.md).
set -euo pipefail

bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
out=$(mkdir -p "$2" && cd "$2" && pwd)
rm -rf "$out/repo" "$out/listing.txt"
mkdir -p "$out/repo"
cd "$out/repo"

gc() { "$bin" "$@" > /dev/null; }

gc init -owner chenli -name corecover -url https://example.org/chenli/corecover -license MIT
mkdir -p lib/util docs
printf 'CoreCover: view-based query rewriting\n' > README.txt
printf 'def rewrite(q):\n    return q\n' > lib/algo.py
printf 'def helper():\n    pass\n' > lib/util/helpers.py
printf '# Guide\n' > docs/guide.md
gc commit -author chenli -m "initial import"
gc add-cite -path /lib -owner bob -repo blib -url https://example.org/bob/blib -version 1 -authors "Bob,Carol" -author chenli
gc modify-cite -path /lib -owner bob -repo blib -url https://example.org/bob/blib -version 2 -authors "Bob,Carol" -author chenli
gc add-cite -path /docs/guide.md -owner dana -repo handbook -url https://example.org/dana/handbook -version 0.3 -author chenli
gc branch side
gc switch side
mkdir -p side
printf 'def feature():\n    return 1\n' > side/feature.py
gc commit -author erin -m "side feature"
gc add-cite -path /side/feature.py -owner erin -repo feat -url https://example.org/erin/feat -version 1.1 -author erin
gc switch main
rm -rf side
printf 'def rewrite(q):\n    return q.simplify()\n' > lib/algo.py
gc commit -author chenli -m "simplify before rewriting"
gc del-cite -path /docs/guide.md -author chenli
gc merge -from side -author chenli
printf '# Guide\n\nSee lib/algo.py.\n' > docs/guide.md
gc commit -author chenli -m "guide points at the algorithm"

paths=(/ /README.txt /lib /lib/algo.py /lib/util /lib/util/helpers.py /docs /docs/guide.md /side /side/feature.py)
"$bin" log | cut -d' ' -f1 | while read -r rev; do
  for p in "${paths[@]}"; do
    echo "== $rev $p"
    "$bin" cite -rev "$rev" -path "$p" 2> /dev/null || echo "(no citation)"
  done
done > "$out/listing.txt"
