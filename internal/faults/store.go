package faults

import (
	"context"
	"fmt"

	"repro/internal/hls"
	"repro/internal/media"
)

// faultyStore injects faults in front of an hls.Store — the origin (or
// gateway edge) as seen by a pulling edge.
type faultyStore struct {
	inj  *Injector
	next hls.Store
}

// Store wraps next so every ChunkList/Chunk call may fail with ErrInjected
// or be delayed by a latency spike, per the injector's rates.
func (i *Injector) Store(next hls.Store) hls.Store {
	return &faultyStore{inj: i, next: next}
}

func (s *faultyStore) before(ctx context.Context, op string) error {
	if d := s.inj.maybeLatency(); d > 0 {
		if err := sleep(ctx, d); err != nil {
			return err
		}
	}
	if s.inj.shouldError() {
		return fmt.Errorf("faults: %s: %w", op, ErrInjected)
	}
	return nil
}

// ChunkList implements hls.Store.
func (s *faultyStore) ChunkList(ctx context.Context, broadcastID string) (*media.ChunkList, error) {
	if err := s.before(ctx, "chunklist "+broadcastID); err != nil {
		return nil, err
	}
	return s.next.ChunkList(ctx, broadcastID)
}

// Chunk implements hls.Store.
func (s *faultyStore) Chunk(ctx context.Context, broadcastID string, seq uint64) (*media.Chunk, error) {
	if err := s.before(ctx, fmt.Sprintf("chunk %s/%d", broadcastID, seq)); err != nil {
		return nil, err
	}
	return s.next.Chunk(ctx, broadcastID, seq)
}
