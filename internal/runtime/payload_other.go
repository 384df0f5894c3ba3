//go:build !amd64

package runtime

// fillBlocks is never called off amd64 (useAVX2 is false there): the
// portable loop fills every block.
func fillBlocks(dst *byte, blocks int, s *[4]uint64) {}
