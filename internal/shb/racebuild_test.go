//go:build race

package shb_test

func init() { raceBuild = true }
