package runtime

// fillBlocks writes blocks whole 32-byte blocks of the fill law from dst
// on with the AVX2 kernel, advancing the four lanes one xorshift step per
// block, and leaves the advanced lanes in s. dst must hold blocks·32 bytes
// and blocks must be positive.
//
//go:noescape
func fillBlocks(dst *byte, blocks int, s *[4]uint64)
