package security

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"time"
)

// Periscope reserves TLS for private broadcasts (§7.2: "for scalability,
// Periscope uses RTMP/HLS for all public broadcasts and only uses RTMPS for
// private broadcasts"; Facebook Live uses RTMPS everywhere). These helpers
// mint the platform's self-signed server credentials; clients receive the
// CA certificate over the authenticated control channel, so the §7 attacker
// — who only taps the data path — cannot substitute its own.

// TLSCredentials hold a freshly minted server certificate and the CA pool
// clients should trust.
type TLSCredentials struct {
	// Server is ready for tls.Server / tls.Listen.
	Server tls.Certificate
	// CertPEM is the certificate clients pin (delivered via the control
	// channel in the platform).
	CertPEM []byte
	// ClientConfig returns a tls.Config trusting exactly this server.
	pool *x509.CertPool
}

// GenerateTLS mints a self-signed ECDSA P-256 certificate valid for
// loopback use.
func GenerateTLS() (*TLSCredentials, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("security: tls keygen: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return nil, fmt.Errorf("security: tls serial: %w", err)
	}
	//lint:allow walltime X.509 validity is checked against wall time
	now := time.Now()
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: "livesim-rtmps"},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(24 * 365 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
		DNSNames:              []string{"localhost"},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("security: tls cert: %w", err)
	}
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return nil, fmt.Errorf("security: tls key: %w", err)
	}
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	serverCert, err := tls.X509KeyPair(certPEM, keyPEM)
	if err != nil {
		return nil, fmt.Errorf("security: tls pair: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		return nil, fmt.Errorf("security: tls pool")
	}
	return &TLSCredentials{Server: serverCert, CertPEM: certPEM, pool: pool}, nil
}

// ServerConfig returns the listener-side TLS configuration.
func (c *TLSCredentials) ServerConfig() *tls.Config {
	return &tls.Config{Certificates: []tls.Certificate{c.Server}, MinVersion: tls.VersionTLS12}
}

// ClientConfig returns a client configuration pinning the platform CA.
func (c *TLSCredentials) ClientConfig() *tls.Config {
	return &tls.Config{RootCAs: c.pool, MinVersion: tls.VersionTLS12}
}

// ClientConfigFromPEM builds the client configuration from the PEM bytes
// handed out by the control channel.
func ClientConfigFromPEM(certPEM []byte) (*tls.Config, error) {
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		return nil, fmt.Errorf("security: invalid CA PEM")
	}
	return &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}, nil
}
