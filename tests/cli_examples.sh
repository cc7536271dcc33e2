#!/usr/bin/env bash
# Command-line examples: generate instances, run all 11 `run --algo`
# choices and verify each output, writing every file into the current
# directory.  The arguments are the command that starts the CLI:
#
#   bash tests/cli_examples.sh hypermatch                  # installed script
#   bash tests/cli_examples.sh python -m hypermatch.cli    # hypermatch importable
#
# Stops with a non-zero status at the first step that fails.
set -eo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]" >&2
  exit 2
fi
cli=("$@")
# `command` skips this function, so the installed `hypermatch` can be named
hypermatch() { command "${cli[@]}" "$@"; }

hypermatch generate cycle n=5 --out c5.gr
hypermatch generate random-hypergraph n=10 m=20 r=3 --seed 7 --out h.hgr
hypermatch generate star n=600 --out star.gr
hypermatch generate line-graph-of --in h.hgr --out lg.gr
printf 'gr 4 3\r\n0\t1\r\n\r\n 1 2 \r\n2\t3\r\n' > ws.gr
hypermatch generate complete n=14 --out k14.gr
hypermatch generate path n=5 --out p5.gr
hypermatch generate random-hypergraph n=9 m=10 r=3 --seed 4 --out a.hgr
printf 'gr 3 2\n0 1\n1 2\n0: 5 7\n1: 7 9\n' > p3.lists
hypermatch run --algo edge-color --in c5.gr --out c5.col
hypermatch run --algo maximal-matching --in h.hgr --out h.mat --json report.json
hypermatch run --algo maximal-matching --in star.gr --out star.mat --json star.json
hypermatch run --algo orientation --in c5.gr --lambda 2 --eps 1/2 --out c5.or
hypermatch run --algo mis --in lg.gr --out lg.mis
hypermatch run --algo mis --in ws.gr --out ws.mis
hypermatch run --algo orientation --in k14.gr --lambda 7 --eps 1/2 --oracle --json k14.json
grep -q '"arboricity": 7,' k14.json
hypermatch run --algo edge-color --in p5.gr --oracle --out p5.col
hypermatch run --algo approx-matching --in a.hgr --out a.mat
hypermatch run --algo list-edge-color --in p3.lists --out p3.lc
hypermatch run --algo rand-edge-color --in c5.gr --seed 3 --out c5.rc
hypermatch run --algo vertex-color --in c5.gr --out c5.vc
hypermatch run --algo approx-graph-matching --in c5.gr --eps 1/2 --out c5.agm
hypermatch run --algo pseudo-forests --in c5.gr --lambda 2 --eps 1/2 --out c5.pf
hypermatch run --algo arb-edge-color --in c5.gr --arboricity 2 --eps 1 --out c5.ac
hypermatch verify edge-coloring --in c5.gr c5.col
hypermatch verify maximal-matching --in h.hgr h.mat
hypermatch verify maximal-matching --in star.gr star.mat
hypermatch verify orientation --in c5.gr c5.or --lambda 2 --eps 1/2
hypermatch verify mis --in lg.gr lg.mis
hypermatch verify mis --in ws.gr ws.mis
hypermatch verify edge-coloring --in p5.gr p5.col
hypermatch verify matching --in a.hgr a.mat
hypermatch verify list-edge-coloring --in p3.lists p3.lc
hypermatch verify edge-coloring --in c5.gr c5.rc
hypermatch verify vertex-coloring --in c5.gr c5.vc
hypermatch verify matching --in c5.gr c5.agm
hypermatch verify pseudo-forests --in c5.gr c5.pf --lambda 2 --eps 1/2
hypermatch verify edge-coloring --in c5.gr c5.ac
status=0
hypermatch verify orientation --in c5.gr c5.or --lambda 2 --eps -1 || status=$?
test "$status" -eq 2
