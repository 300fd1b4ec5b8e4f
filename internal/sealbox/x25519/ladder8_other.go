//go:build !amd64 || purego

package x25519

func ladder8(*ladderState8, []uint64) { panic("x25519: no vector ladder in this build") }

func fieldOps8(*[5]vec8) { panic("x25519: no vector ladder in this build") }

func hasIFMA() bool { return false }
