// Quickstart: boot the full reproduced platform in-process, start a
// broadcast, watch it over both delivery paths (RTMP push and HLS polling),
// and interact through the message channel — the complete Figure 8
// architecture in one program.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/pubsub"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks one broadcast through the platform, printing each step to w.
func run(ctx context.Context, w io.Writer) error {
	// 1. Boot the platform: control plane, 8 Wowza-like origins,
	//    23 Fastly-like edges, message hub — all on loopback.
	platform := core.NewPlatform(core.PlatformConfig{
		ChunkDuration:   time.Second, // shorter chunks keep the demo snappy
		RTMPViewerLimit: 100,
	})
	if err := platform.Start(ctx); err != nil {
		return err
	}
	defer platform.Stop()
	fmt.Fprintln(w, "platform up:", platform.ControlURL())

	// 2. Register a broadcaster and go live from New York.
	cc := &control.Client{BaseURL: platform.ControlURL()}
	uid, err := cc.Register(ctx, "alice")
	if err != nil {
		return err
	}
	nyc := geo.Location{City: "New York", Continent: geo.NorthAmerica, Lat: 40.71, Lon: -74.01}
	grant, err := cc.StartBroadcast(ctx, uid, nyc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "broadcast %s live via origin %s\n", grant.BroadcastID, grant.OriginID)

	// 3. The broadcaster uploads 2.5 s of video over persistent RTMP.
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		return err
	}
	var uploadErr error
	var uploading sync.WaitGroup
	uploading.Add(1)
	go func() {
		defer uploading.Done()
		uploadErr = upload(pub)
	}()
	defer uploading.Wait()

	// 4. An early viewer joins: routed to low-latency RTMP (§4.1).
	viewGrant, err := cc.Join(ctx, 1001, grant.BroadcastID, nyc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "first viewer routed to:", viewGrant.Protocol)
	viewer, err := rtmp.Subscribe(ctx, viewGrant.RTMPAddr, grant.BroadcastID, "", rtmp.ViewerOptions{})
	if err != nil {
		return err
	}
	defer viewer.Close()

	// 5. The viewer hearts the stream through the PubNub-like channel.
	mc := &pubsub.Client{BaseURL: viewGrant.MessageURL}
	if _, err := mc.Publish(ctx, grant.BroadcastID, pubsub.Event{
		UserID: "viewer-1001", Kind: pubsub.KindHeart,
	}); err != nil {
		return err
	}
	if _, err := mc.Publish(ctx, grant.BroadcastID, pubsub.Event{
		UserID: "viewer-1001", Kind: pubsub.KindComment, Text: "hello from the quickstart!",
	}); err != nil {
		return err
	}

	// 6. Drain the RTMP stream and report per-frame latency.
	var n int
	var totalDelay time.Duration
	for rf := range viewer.Frames() {
		n++
		totalDelay += rf.ReceivedAt.Sub(rf.Frame.CapturedAt)
	}
	uploading.Wait()
	if uploadErr != nil {
		return fmt.Errorf("upload: %w", uploadErr)
	}
	if n == 0 {
		return errors.New("the RTMP viewer received no frames")
	}
	fmt.Fprintf(w, "RTMP viewer: %d frames, mean capture→screen delay %v\n", n, totalDelay/time.Duration(n))

	// 7. A late viewer reads the same content over HLS from its edge.
	hlsClient := &hls.Client{BaseURL: viewGrant.HLSBaseURL}
	cl, err := hlsClient.FetchChunkList(ctx, grant.BroadcastID, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "HLS edge has %d chunks (playlist v%d, ended=%v)\n", len(cl.Chunks), cl.Version, cl.Ended)
	if len(cl.Chunks) == 0 {
		return errors.New("the HLS chunklist is empty")
	}
	chunk, err := hlsClient.FetchChunk(ctx, grant.BroadcastID, cl.Chunks[0].Seq)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "downloaded chunk %d: %d frames, %d bytes\n", chunk.Seq, len(chunk.Frames), chunk.Size())

	// 8. Interactions, as recorded by the channel.
	comments, hearts := platform.Hub.Counts(grant.BroadcastID)
	fmt.Fprintf(w, "interactions: %d comment(s), %d heart(s)\n", comments, hearts)
	return nil
}

// upload sends 2.5 s of synthetic video in real time, then ends the
// broadcast.
func upload(pub *rtmp.Publisher) error {
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(1))
	ticker := time.NewTicker(media.FrameDuration)
	defer ticker.Stop()
	for i := 0; i < 63; i++ {
		<-ticker.C
		f := enc.Next(time.Now())
		if err := pub.Send(&f); err != nil {
			return err
		}
	}
	return pub.End()
}
