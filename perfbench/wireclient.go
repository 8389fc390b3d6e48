package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"sentinel/internal/wire"
)

// readFrame reads one wire response frame from br and calls got for each
// element as its payload arrives (completion order). payload aliases buf,
// which is reused across elements; got must copy what it keeps. Every tag
// in [0, want) must arrive exactly once.
func readFrame(br *bufio.Reader, want int, buf []byte, got func(tag uint32, status int, payload []byte)) ([]byte, error) {
	n, err := wire.ReadResponseHeader(br, wire.Limits{})
	if err != nil {
		return buf, err
	}
	if n != want {
		return buf, fmt.Errorf("response frame has %d elements, want %d", n, want)
	}
	seen := make([]bool, want)
	for i := 0; i < n; i++ {
		tag, status, plen, err := wire.ReadElemHeader(br, wire.Limits{})
		if err != nil {
			return buf, err
		}
		if int(tag) >= want || seen[tag] {
			return buf, fmt.Errorf("unexpected or repeated element tag %d", tag)
		}
		seen[tag] = true
		buf = slices.Grow(buf[:0], plen)[:plen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return buf, err
		}
		got(tag, status, buf)
	}
	return buf, nil
}
