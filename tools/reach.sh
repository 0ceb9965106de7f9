#!/bin/bash
# Usage: reach.sh <source-tree> <build-dir>
# Builds every binary (tests off) with per-function sections and
# --gc-sections, then prints, per object file of the llmms_* libraries,
# how many of its strong global symbols survive in at least one binary.
set -euo pipefail
src=$1; out=$2
cmake -S "$src" -B "$out" -DCMAKE_BUILD_TYPE=Release -DLLMMS_BUILD_TESTS=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$out" -j3 >/dev/null
bins=$(find "$out" -type f -executable ! -name '*.so' ! -path '*/CMakeFiles/*' | sort)
echo "binaries: $(echo "$bins" | wc -l)"; echo "$bins" | sed "s#^$out/#  #"
# Every symbol defined in any linked binary.
for b in $bins; do nm --defined-only "$b" | awk '{print $3}'; done | sort -u > "$out/live.txt"
printf '%-45s %5s %5s\n' object live strong
for o in $(find "$out/src" -name '*.o' | sort); do
  nm --defined-only -g "$o" | awk '$2 ~ /^[TDBR]$/ {print $3}' | sort -u > "$out/obj.txt"
  total=$(wc -l < "$out/obj.txt")
  live=$(comm -12 "$out/obj.txt" "$out/live.txt" | wc -l)
  name=${o#"$out"/src/llmms/}; name=${name/\/CMakeFiles\/llmms_*.dir\//\/}
  printf '%-45s %5d %5d\n' "${name%.o}" "$live" "$total"
done
