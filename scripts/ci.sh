#!/usr/bin/env bash
# Offline CI gate for the nuspi workspace: tier-1 build + tests, the
# differential solver suite, and formatting. No network access needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> differential solver suite (sequential / reference)"
cargo test -q --test differential
cargo test -q --test provenance_stats

echo "==> presentation walls (witness selector vs render-all rule, explorer vs alpha-only search)"
cargo test -q --test witness_wall
cargo test -q --test explore_wall

echo "==> front-door walls (run-copy JSON reader/escape, one-buffer estimate dumps, parse error texts)"
cargo test -q --test jsonio_wall
cargo test -q --test render_wall
cargo test -q --test parse_error_wall

echo "==> lint golden files (incl. ns-lowe / splice-as and their broken variants)"
cargo test -q --test lint_golden

echo "==> lattice conservative-extension walls (2-point twin policies, serve transcripts, kind = projected level)"
cargo test -q --test lattice_wall
cargo test -q --test kind_wall

echo "==> lattice laws (join/meet/order/flow-judgment properties)"
cargo test -q -p nuspi-security --test lattice_laws

echo "==> lang ladder golden files, determinism, parser robustness"
cargo test -q --test lang_golden
cargo test -q -p nuspi-lang
cargo test -q -p nuspi-lang --test determinism
cargo test -q -p nuspi-lang --test robustness

echo "==> equiv walls (laws, miner, differential oracle, goldens, memo key, lazy game vs eager game)"
cargo test -q -p nuspi-equiv
cargo test -q -p nuspi-equiv --test laws
cargo test -q -p nuspi-equiv --test miner
cargo test -q --test equiv_differential
cargo test -q --test equiv_golden
cargo test -q -p nuspi-equiv --lib key_wall
cargo test -q -p nuspi-equiv --lib game_wall

echo "==> digest properties, jsonio edge cases, engine stress, trace schema"
cargo test -q --test properties digest  # the three canonical-digest properties
cargo test -q -p nuspi-engine --test jsonio_edge
cargo test -q -p nuspi-engine --test stress
cargo test -q -p nuspi-engine --test trace

echo "==> bench regression gate (smoke)"
./scripts/bench_gate.sh --smoke

echo "==> nuspi serve round-trip smoke test"
serve_out=$(printf '%s\n' \
  '{"id":"r1","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}' \
  '{"id":"r2","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}' \
  '{"id":"s","op":"stats"}' \
  | ./target/release/nuspi serve --jobs 2)
echo "$serve_out"
[ "$(echo "$serve_out" | wc -l)" -eq 3 ] || { echo "serve: expected 3 response lines"; exit 1; }
echo "$serve_out" | sed -n 1p | grep -q '"secure":true' || { echo "serve: audit verdict missing"; exit 1; }
[ "$(echo "$serve_out" | sed -n 1p | sed 's/r1/rX/')" = "$(echo "$serve_out" | sed -n 2p | sed 's/r2/rX/')" ] \
  || { echo "serve: repeat not byte-identical"; exit 1; }
echo "$serve_out" | sed -n 3p | grep -q '"hits":1' || { echo "serve: cache hit not reported"; exit 1; }
if echo "$serve_out" | sed -n 3p | grep -q '"incremental"'; then echo "serve: stale incremental meters in stats"; exit 1; fi

echo "==> nuspi serve equiv smoke test"
equiv_out=$(printf '%s\n' \
  '{"id":"e1","op":"equiv","left":"(new n) c<n>.0","right":"(hide n) c<n>.0"}' \
  '{"id":"e2","op":"equiv","left":"(hide n) c<n>.0","right":"(new n) c<n>.0"}' \
  | ./target/release/nuspi serve --jobs 2)
[ "$(echo "$equiv_out" | wc -l)" -eq 2 ] || { echo "equiv: expected 2 response lines"; exit 1; }
echo "$equiv_out" | sed -n 1p | grep -q '"verdict":"distinguished"' || { echo "equiv: verdict missing"; exit 1; }
echo "$equiv_out" | sed -n 1p | grep -q '"trace":\[' || { echo "equiv: distinguishing trace missing"; exit 1; }
# The pair cache key is order-independent: the swapped pair is the same
# entry, so the body must be byte-identical.
[ "$(echo "$equiv_out" | sed -n 1p | sed 's/e1/eX/')" = "$(echo "$equiv_out" | sed -n 2p | sed 's/e2/eX/')" ] \
  || { echo "equiv: swapped pair not byte-identical"; exit 1; }

echo "==> nuspi equiv CLI exit codes"
left_f=$(mktemp); right_f=$(mktemp)
printf '(new n) c<n>.0\n' >"$left_f"
printf '(hide n) c<n>.0\n' >"$right_f"
rc=0; ./target/release/nuspi equiv "$left_f" "$left_f" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "equiv CLI: reflexive pair should exit 0, got $rc"; exit 1; }
rc=0; ./target/release/nuspi equiv "$left_f" "$right_f" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "equiv CLI: distinguished pair should exit 1, got $rc"; exit 1; }
rm -f "$left_f" "$right_f"

echo "==> nuspi serve analyze_source smoke test"
lang_out=$(printf '%s\n' \
  '{"id":"a1","op":"analyze_source","file":"leak.nu","source":"func main() {\n//nuspi::sink::{}\nout := make(chan)\n//nuspi::label::{high}\npin := 4\nout <- pin\n}"}' \
  '{"id":"a2","op":"analyze_source","file":"leak.nu","source":"func main() {\n//nuspi::sink::{}\nout   :=   make(chan)\n//nuspi::label::{high}\npin   :=   4\nout   <-   pin\n}"}' \
  | ./target/release/nuspi serve --jobs 2)
[ "$(echo "$lang_out" | wc -l)" -eq 2 ] || { echo "analyze_source: expected 2 response lines"; exit 1; }
echo "$lang_out" | sed -n 1p | grep -q '"verdict":"insecure"' || { echo "analyze_source: verdict missing"; exit 1; }
echo "$lang_out" | sed -n 1p | grep -q 'leak.nu:5:1' || { echo "analyze_source: origin anchor missing"; exit 1; }
# The second request is the same program reformatted: the α-digest cache
# key is unchanged, so the body must be byte-identical.
[ "$(echo "$lang_out" | sed -n 1p | sed 's/a1/aX/')" = "$(echo "$lang_out" | sed -n 2p | sed 's/a2/aX/')" ] \
  || { echo "analyze_source: reformatted resubmission not byte-identical"; exit 1; }

echo "==> nuspi check ladder verdicts"
for f in examples/lang/*.nu; do
  expect=$(head -1 "$f" | sed 's|// expect: ||')
  if ./target/release/nuspi check "$f" >/dev/null 2>&1; then got=secure; else got=insecure; fi
  [ "$got" = "$expect" ] || { echo "ladder: $f expected $expect, got $got"; exit 1; }
done

echo "==> nuspi serve --trace smoke test"
trace_file=$(mktemp)
traced_out=$(printf '%s\n' \
  '{"id":"r1","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}' \
  '{"id":"r2","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}' \
  '{"id":"s","op":"stats"}' \
  | ./target/release/nuspi serve --jobs 2 --trace "$trace_file" 2>/dev/null)
grep -q '"type":"span"' "$trace_file" || { echo "trace: no spans recorded"; exit 1; }
grep -q '"name":"engine.exec"' "$trace_file" || { echo "trace: engine.exec span missing"; exit 1; }
grep -q '"type":"counter"' "$trace_file" || { echo "trace: no counters recorded"; exit 1; }
rm -f "$trace_file"
# Tracing must not change the response bytes (modulo the stats obs section).
[ "$(echo "$serve_out" | sed -n 1p)" = "$(echo "$traced_out" | sed -n 1p)" ] \
  || { echo "trace: response bytes changed under tracing"; exit 1; }

echo "==> nuspi serve --listen network smoke test (persistent cache)"
net_dir=$(mktemp -d)
net_out=$(mktemp -d)
net_log=$(mktemp)
net_fifo=$(mktemp -u)
mkfifo "$net_fifo"
scrape_port() {  # the server prints "listening on 127.0.0.1:PORT" on stderr
  local log=$1 port="" _i
  for _i in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1://p' "$log" | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  echo "$port"
}
./target/release/nuspi serve --listen 127.0.0.1:0 --cache-dir "$net_dir" --jobs 2 \
  <"$net_fifo" 2>"$net_log" &
net_pid=$!
exec 9>"$net_fifo"  # hold the server's stdin open; closing fd 9 drains it
port=$(scrape_port "$net_log")
[ -n "$port" ] || { echo "net: server never reported its port"; exit 1; }

# Four concurrent clients over /dev/tcp, same audit, distinct ids.
client_pids=""
for k in 1 2 3 4; do
  (
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '{"id":"n%d","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}\n' "$k" >&3
    IFS= read -r line <&3
    printf '%s\n' "$line" >"$net_out/client$k.out"
  ) &
  client_pids="$client_pids $!"
done
for p in $client_pids; do wait "$p"; done
for k in 1 2 3 4; do
  grep -q '"secure":true' "$net_out/client$k.out" || { echo "net: client $k verdict missing"; exit 1; }
  [ "$(sed "s/n$k/nX/" "$net_out/client$k.out")" = "$(sed 's/n1/nX/' "$net_out/client1.out")" ] \
    || { echo "net: client $k transcript diverged"; exit 1; }
done

exec 9>&-  # stdin EOF: graceful drain
wait "$net_pid" || { echo "net: server exited nonzero on drain"; exit 1; }
grep -q '^draining$' "$net_log" || { echo "net: drain never announced"; exit 1; }

# Restart over the same cache dir: the body must come back verbatim from
# disk (a store hit, not a recompute), byte-identical to the first life.
# Fresh fifo and log — the first life's "listening on" line is stale.
net_fifo2=$(mktemp -u)
net_log2=$(mktemp)
mkfifo "$net_fifo2"
./target/release/nuspi serve --listen 127.0.0.1:0 --cache-dir "$net_dir" --jobs 2 \
  <"$net_fifo2" 2>"$net_log2" &
net_pid=$!
exec 9>"$net_fifo2"
port=$(scrape_port "$net_log2")
[ -n "$port" ] || { echo "net: restarted server never reported its port"; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf '{"id":"n1","op":"audit","process":"(new k) (new m) c<{m, new r}:k>.0","secrets":["m","k"]}\n' >&3
IFS= read -r warm_line <&3
printf '{"id":"s","op":"stats"}\n' >&3
IFS= read -r stats_line <&3
exec 3<&- 3>&-
[ "$warm_line" = "$(cat "$net_out/client1.out")" ] \
  || { echo "net: restart response not byte-identical to first life"; exit 1; }
echo "$stats_line" | grep -q '"store":{"hits":1' || { echo "net: disk store hit not reported"; exit 1; }
exec 9>&-
wait "$net_pid" || { echo "net: restarted server exited nonzero on drain"; exit 1; }

echo "==> nuspi cache inspection"
./target/release/nuspi cache verify --cache-dir "$net_dir" || { echo "cache: verify failed"; exit 1; }
./target/release/nuspi cache stats --cache-dir "$net_dir" | grep -q 'live entries: 1' \
  || { echo "cache: stats miscounted"; exit 1; }
rm -rf "$net_dir" "$net_out" "$net_log" "$net_fifo" "$net_log2" "$net_fifo2"

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI PASS"
