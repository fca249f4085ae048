#!/usr/bin/env bash
# Repo-wide check pipeline: formatting, vet, build, race-enabled tests,
# and the numerical-hygiene analyzer over the library packages. CI and
# pre-commit both run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# cmd/relperf is a nested module, so the ./... patterns above never reach
# it; vet and test it on its own so a change to the APIs it builds against
# (obs, modelio, jobs) breaks here. -short skips its relcli builds.
echo "== relperf (nested module)"
(cd cmd/relperf && go vet ./... && go test -short ./...)

echo "== go test -race"
go test -race ./...

echo "== fallback-chain race stress"
go test -race -run='^TestChainStressRace$' -count=4 ./internal/guard/

# Sweep shards share one compiled CTMC plan; it must never be written
# after compile.
echo "== compiled-plan race stress"
go test -race -run='^TestCTMCPlanConcurrentSolve$' -count=10 ./internal/modelio/

echo "== bench smoke"
go test -bench=. -benchtime=1x -run='^$' ./...

# numvet's unused-export rule reads references from the whole module
# (examples, cmd/experiments, the nested cmd/relperf module, every test
# file) and reports functions under internal/, exported or not, that
# nothing but their own package's tests calls.
echo "== numvet"
go run ./cmd/numvet ./internal/... ./cmd/relcli

# Static structural analysis over every bundled model except the
# deliberately-broken lint fixtures; fails on error-severity findings.
echo "== relcli analyze"
go run ./cmd/relcli analyze $(ls models/*.json | grep -v broken_)

# Serve smoke: boot the real server on a free port, push one solve
# through it, and assert the dashboard renders and the trace store
# retained the request. This is the only check that exercises the
# binary end to end over TCP rather than httptest.
# Its binary and log live in a fresh temporary directory, so two
# checkouts can run the gate at once.
echo "== serve smoke"
SMOKE_DIR=$(mktemp -d /tmp/relcli-smoke.XXXXXX)
trap 'kill "${SMOKE_PID:-0}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
go build -o "$SMOKE_DIR/relcli" ./cmd/relcli
"$SMOKE_DIR/relcli" serve -addr 127.0.0.1:0 > "$SMOKE_DIR/serve.out" 2>&1 &
SMOKE_PID=$!
for _ in $(seq 50); do
    grep -q "serving on" "$SMOKE_DIR/serve.out" && break
    sleep 0.1
done
SMOKE_ADDR=$(sed -n 's|.*http://\([0-9.:]*\).*|\1|p' "$SMOKE_DIR/serve.out" | head -n1)
if [[ -z "$SMOKE_ADDR" ]]; then
    echo "serve smoke: server never announced an address" >&2
    cat "$SMOKE_DIR/serve.out" >&2
    exit 1
fi
curl -sSf -X POST --data-binary @models/repairfarm.json "http://$SMOKE_ADDR/solve" > /dev/null
ui=$(curl -sSf "http://$SMOKE_ADDR/ui")
if [[ -z "$ui" ]] || ! grep -q "reldash" <<< "$ui"; then
    echo "serve smoke: /ui did not render the dashboard" >&2
    exit 1
fi
if ! curl -sSf "http://$SMOKE_ADDR/api/traces" | grep -q '"endpoint": "solve"'; then
    echo "serve smoke: /api/traces does not contain the solve" >&2
    exit 1
fi
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
rm -rf "$SMOKE_DIR"
trap - EXIT

# Performance gate: run E1-E16 once each and one round of the ten clean
# fixtures through the serve stack, and check them against
# BENCH_solvers.json and cmd/relcli/testdata/serve_allocs.golden. The
# dominant solver and iteration count of each experiment must match
# exactly; heap allocations must stay within max(0.5%, 48 allocations) of
# the baseline in either direction; wall time only backstops at 10x +
# 250ms. TestSolveLargeAllocs holds parse plus solve of four farms (11
# machines availability, with even and with random rates; 10 machines
# transient; 9 machines steady state) to their byte and allocation
# bounds. All three build only without -race, so the pass
# above skips them. Regenerate intended changes with -update.
echo "== suite baseline gate"
go test -count=1 -run '^(TestSuiteBaseline|TestServeSolveAllocs|TestSolveLargeAllocs)$' . ./cmd/relcli

# Fuzz smoke is opt-in (CHECK_FUZZ=1): ten seconds per target over the
# modelio JSON parser, seeded from models/*.json, the one-pass ctmc
# decoder against encoding/json, the serve request body, relstruct's
# tolerance merge against its first-fit oracle, lint's one-report
# CheckCTMC against the checks it replaced, and the indexed chain (the
# counting-sort generator, uniformization and the plan's answers) against
# the triplet-sorting pipeline it replaced, and the BDD manager against
# the map-table, memoized-Prob reference it replaced. Go allows one -fuzz
# target per invocation, hence the loop.
if [[ "${CHECK_FUZZ:-0}" == "1" ]]; then
    for target in FuzzLoadDocument FuzzLint FuzzDecodeCTMC FuzzPlanMatchesReference; do
        echo "== fuzz smoke: $target"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime=10s ./internal/modelio/
    done
    echo "== fuzz smoke: FuzzChainMatchesReference"
    go test -run='^$' -fuzz='^FuzzChainMatchesReference$' -fuzztime=10s ./internal/markov/
    echo "== fuzz smoke: FuzzSolveBody"
    go test -run='^$' -fuzz='^FuzzSolveBody$' -fuzztime=10s ./cmd/relcli/
    echo "== fuzz smoke: FuzzSplitBlock"
    go test -run='^$' -fuzz='^FuzzSplitBlock$' -fuzztime=10s ./internal/relstruct/
    echo "== fuzz smoke: FuzzCheckCTMC"
    go test -run='^$' -fuzz='^FuzzCheckCTMC$' -fuzztime=10s ./internal/lint/
    echo "== fuzz smoke: FuzzBDDMatchesReference"
    go test -run='^$' -fuzz='^FuzzBDDMatchesReference$' -fuzztime=10s ./internal/bdd/
fi

# Chaos smoke is opt-in (CHECK_CHAOS=1): the seeded fault-injection
# drill from `relcli chaos` under the race detector — a 200-request
# swarm against the real handler stack with every resilience invariant
# enforced (typed outcomes, finite results, breaker open/re-close, no
# goroutine leaks). The seed is fixed so failures reproduce exactly.
if [[ "${CHECK_CHAOS:-0}" == "1" ]]; then
    echo "== chaos smoke"
    go run -race ./cmd/relcli chaos -requests 200 -swarm 8 -seed 42
    # Durability drill: kill a checkpointing serve process mid-sweep,
    # resume from the write-ahead log on a fresh one, and demand the
    # folded quantiles come out bit-identical to an uninterrupted run.
    echo "== chaos kill-resume"
    go run -race ./cmd/relcli chaos -kill-resume -seed 42
fi

# SLO smoke is opt-in (CHECK_SLO=1): boot the real server with a tight
# availability objective and a deterministic 1-in-2 build failure, push
# enough traffic to blow the error budget, and assert over /api/slo that
# the burn-rate alert actually fired. Then close the loop the other way:
# take a correlation ID off a wide-event line and resolve it back to its
# trace through /api/traces?corr=.
if [[ "${CHECK_SLO:-0}" == "1" ]]; then
    echo "== slo smoke"
    SLO_DIR=$(mktemp -d /tmp/relcli-slo.XXXXXX)
    trap 'kill "${SLO_PID:-0}" 2>/dev/null || true; rm -rf "$SLO_DIR"' EXIT
    cat > "$SLO_DIR/objectives.json" <<'EOF'
{"objectives": [
  {"name": "smoke-avail", "target": 0.99, "match": {"route": "/solve"}}
]}
EOF
    go build -o "$SLO_DIR/relcli" ./cmd/relcli
    "$SLO_DIR/relcli" serve -addr 127.0.0.1:0 \
        -slo "$SLO_DIR/objectives.json" \
        -wide-events "$SLO_DIR/wide.jsonl" \
        -failpoints 'modelio.build:1-in-2->error(injected)' \
        > "$SLO_DIR/serve.out" 2>&1 &
    SLO_PID=$!
    for _ in $(seq 50); do
        grep -q "serving on" "$SLO_DIR/serve.out" && break
        sleep 0.1
    done
    SLO_ADDR=$(sed -n 's|.*http://\([0-9.:]*\).*|\1|p' "$SLO_DIR/serve.out" | head -n1)
    if [[ -z "$SLO_ADDR" ]]; then
        echo "slo smoke: server never announced an address" >&2
        cat "$SLO_DIR/serve.out" >&2
        exit 1
    fi
    # 1-in-2 fires on every odd evaluation, so failures never run 5 in a
    # row and the breaker stays closed: exactly half of these 40 solves
    # 500, a 50x burn against the 1% budget.
    for _ in $(seq 40); do
        curl -s -o /dev/null -X POST --data-binary @models/repairfarm.json \
            "http://$SLO_ADDR/solve" || true
    done
    slo_json=$(curl -sSf "http://$SLO_ADDR/api/slo")
    if ! jq -e '.objectives[] | select(.name == "smoke-avail") | .breaching' \
            <<< "$slo_json" > /dev/null; then
        echo "slo smoke: smoke-avail never breached under 50% injected failures" >&2
        echo "$slo_json" >&2
        exit 1
    fi
    if ! jq -e '.objectives[] | select(.name == "smoke-avail") | .budget_remaining < 1' \
            <<< "$slo_json" > /dev/null; then
        echo "slo smoke: error budget did not burn" >&2
        echo "$slo_json" >&2
        exit 1
    fi
    corr=$(jq -r 'select(.trace != null and .trace != "") | .corr' \
        "$SLO_DIR/wide.jsonl" | head -n1)
    if [[ -z "$corr" ]]; then
        echo "slo smoke: no wide event carries a trace ID" >&2
        cat "$SLO_DIR/wide.jsonl" >&2
        exit 1
    fi
    if ! curl -sSf "http://$SLO_ADDR/api/traces?corr=$corr" | grep -q "\"$corr\""; then
        echo "slo smoke: /api/traces?corr=$corr did not resolve the wide event's trace" >&2
        exit 1
    fi
    kill "$SLO_PID" 2>/dev/null || true
    wait "$SLO_PID" 2>/dev/null || true
    rm -rf "$SLO_DIR"
    trap - EXIT
fi

echo "all checks passed"
