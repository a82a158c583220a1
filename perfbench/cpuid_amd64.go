package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002–4, read from the CPU itself rather than from any file.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}

// llcBytes returns the size of the largest cache level CPUID's
// deterministic cache parameters (leaf 4) describe, or 0 when the leaf
// is unavailable.
func llcBytes() int64 {
	if max, _, _, _ := cpuid(0, 0); max < 4 {
		return 0
	}
	var best int64
	bestLevel := uint32(0)
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(4, sub)
		if a&0x1f == 0 { // no more caches
			break
		}
		level := (a >> 5) & 0x7
		ways := int64(b>>22&0x3ff) + 1
		partitions := int64(b>>12&0x3ff) + 1
		line := int64(b&0xfff) + 1
		sets := int64(c) + 1
		if size := ways * partitions * line * sets; level > bestLevel || (level == bestLevel && size > best) {
			best, bestLevel = size, level
		}
	}
	return best
}
