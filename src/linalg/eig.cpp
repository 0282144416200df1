#include "linalg/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace catsched::linalg {

namespace {

double sign_of(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

}  // namespace

Matrix hessenberg(const Matrix& a) {
  if (!a.is_square()) {
    throw std::invalid_argument("hessenberg: matrix must be square");
  }
  Matrix h = a;
  const std::size_t n = h.rows();
  if (n < 3) return h;
  std::vector<double> v(n, 0.0);  // Householder workspace, reused per column
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder vector annihilating h(k+2.., k).
    double alpha = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) alpha += h(i, k) * h(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) continue;
    if (h(k + 1, k) > 0.0) alpha = -alpha;
    v[k + 1] = h(k + 1, k) - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = h(i, k);
    double vnorm2 = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 == 0.0) continue;
    const double beta = 2.0 / vnorm2;
    // H = I - beta v v^T ; apply from left: h = H h.
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k + 1; i < n; ++i) s += v[i] * h(i, j);
      s *= beta;
      for (std::size_t i = k + 1; i < n; ++i) h(i, j) -= s * v[i];
    }
    // Apply from right: h = h H.
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) s += h(i, j) * v[j];
      s *= beta;
      for (std::size_t j = k + 1; j < n; ++j) h(i, j) -= s * v[j];
    }
    // Clean exact zeros below the subdiagonal in column k.
    h(k + 1, k) = alpha;
    for (std::size_t i = k + 2; i < n; ++i) h(i, k) = 0.0;
  }
  return h;
}

void balance(Matrix& a) {
  if (!a.is_square()) {
    throw std::invalid_argument("balance: matrix must be square");
  }
  const std::size_t n = a.rows();
  constexpr double radix = 2.0;
  constexpr double sqrdx = radix * radix;
  bool done = false;
  while (!done) {
    done = true;
    for (std::size_t i = 0; i < n; ++i) {
      double r = 0.0;
      double c = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        c += std::abs(a(j, i));
        r += std::abs(a(i, j));
      }
      if (c == 0.0 || r == 0.0) continue;
      double g = r / radix;
      double f = 1.0;
      const double s = c + r;
      while (c < g) {
        f *= radix;
        c *= sqrdx;
      }
      g = r * radix;
      while (c > g) {
        f /= radix;
        c /= sqrdx;
      }
      if ((c + r) / f < 0.95 * s) {
        done = false;
        g = 1.0 / f;
        for (std::size_t j = 0; j < n; ++j) a(i, j) *= g;
        for (std::size_t j = 0; j < n; ++j) a(j, i) *= f;
      }
    }
  }
}

std::vector<std::complex<double>> eigenvalues(const Matrix& a) {
  if (!a.is_square()) {
    throw std::invalid_argument("eigenvalues: matrix must be square");
  }
  const std::size_t n = a.rows();
  std::vector<std::complex<double>> eig(n);
  if (n == 0) return eig;
  if (n == 1) {
    eig[0] = a(0, 0);
    return eig;
  }

  Matrix work = a;
  balance(work);
  Matrix h = hessenberg(work);

  // Francis implicit double-shift QR (EISPACK "hqr" scheme, 0-based).
  const double eps = std::numeric_limits<double>::epsilon();
  double anorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i == 0 ? 0 : i - 1); j < n; ++j) {
      anorm += std::abs(h(i, j));
    }
  }
  if (anorm == 0.0) {
    // Zero matrix: all eigenvalues zero.
    return eig;
  }

  long nn = static_cast<long>(n) - 1;
  double t = 0.0;
  while (nn >= 0) {
    int its = 0;
    long l;
    do {
      // Find a small subdiagonal element to split the problem.
      for (l = nn; l >= 1; --l) {
        double s = std::abs(h(l - 1, l - 1)) + std::abs(h(l, l));
        if (s == 0.0) s = anorm;
        if (std::abs(h(l, l - 1)) <= eps * s) {
          h(l, l - 1) = 0.0;
          break;
        }
      }
      double x = h(nn, nn);
      if (l == nn) {
        // One real root deflated.
        eig[static_cast<std::size_t>(nn)] = x + t;
        --nn;
      } else {
        double y = h(nn - 1, nn - 1);
        double w = h(nn, nn - 1) * h(nn - 1, nn);
        if (l == nn - 1) {
          // A 2x2 block deflates: two roots.
          double p = 0.5 * (y - x);
          double q = p * p + w;
          double z = std::sqrt(std::abs(q));
          x += t;
          if (q >= 0.0) {
            z = p + sign_of(z, p);
            eig[static_cast<std::size_t>(nn - 1)] = x + z;
            eig[static_cast<std::size_t>(nn)] =
                (z != 0.0) ? std::complex<double>(x - w / z) : std::complex<double>(x + z);
          } else {
            eig[static_cast<std::size_t>(nn - 1)] = std::complex<double>(x + p, z);
            eig[static_cast<std::size_t>(nn)] = std::complex<double>(x + p, -z);
          }
          nn -= 2;
        } else {
          // No deflation yet: one implicit double-shift QR sweep.
          if (its == 60) {
            throw std::runtime_error("eigenvalues: QR iteration did not converge");
          }
          double p = 0.0, q = 0.0, r = 0.0, z = 0.0;
          if (its == 10 || its == 20 || its == 30 || its == 40 || its == 50) {
            // Exceptional shift to break symmetry-induced stalls.
            t += x;
            for (long i = 0; i <= nn; ++i) h(i, i) -= x;
            double s = std::abs(h(nn, nn - 1)) + std::abs(h(nn - 1, nn - 2));
            y = x = 0.75 * s;
            w = -0.4375 * s * s;
          }
          ++its;
          long m;
          for (m = nn - 2; m >= l; --m) {
            z = h(m, m);
            double rr = x - z;
            double ss = y - z;
            p = (rr * ss - w) / h(m + 1, m) + h(m, m + 1);
            q = h(m + 1, m + 1) - z - rr - ss;
            r = h(m + 2, m + 1);
            double sc = std::abs(p) + std::abs(q) + std::abs(r);
            p /= sc;
            q /= sc;
            r /= sc;
            if (m == l) break;
            const double u = std::abs(h(m, m - 1)) * (std::abs(q) + std::abs(r));
            const double v =
                std::abs(p) *
                (std::abs(h(m - 1, m - 1)) + std::abs(z) + std::abs(h(m + 1, m + 1)));
            if (u <= eps * v) break;
          }
          for (long i = m + 2; i <= nn; ++i) {
            h(i, i - 2) = 0.0;
            if (i > m + 2) h(i, i - 3) = 0.0;
          }
          for (long k = m; k <= nn - 1; ++k) {
            if (k != m) {
              p = h(k, k - 1);
              q = h(k + 1, k - 1);
              r = (k < nn - 1) ? h(k + 2, k - 1) : 0.0;
              x = std::abs(p) + std::abs(q) + std::abs(r);
              if (x != 0.0) {
                p /= x;
                q /= x;
                r /= x;
              }
            }
            double s = sign_of(std::sqrt(p * p + q * q + r * r), p);
            if (s == 0.0) continue;
            if (k == m) {
              if (l != m) h(k, k - 1) = -h(k, k - 1);
            } else {
              h(k, k - 1) = -s * x;
            }
            p += s;
            x = p / s;
            y = q / s;
            z = r / s;
            q /= p;
            r /= p;
            for (long j = k; j <= nn; ++j) {
              p = h(k, j) + q * h(k + 1, j);
              if (k < nn - 1) {
                p += r * h(k + 2, j);
                h(k + 2, j) -= p * z;
              }
              h(k + 1, j) -= p * y;
              h(k, j) -= p * x;
            }
            const long mmin = std::min(nn, k + 3);
            for (long i = l; i <= mmin; ++i) {
              p = x * h(i, k) + y * h(i, k + 1);
              if (k < nn - 1) {
                p += z * h(i, k + 2);
                h(i, k + 2) -= p * r;
              }
              h(i, k + 1) -= p * q;
              h(i, k) -= p;
            }
          }
        }
      }
    } while (l < nn - 1);
  }
  return eig;
}

double spectral_radius(const Matrix& a) {
  double best = 0.0;
  for (const auto& ev : eigenvalues(a)) {
    const double m = std::abs(ev);
    // A NaN eigenvalue is no evidence of stability: report it unstable,
    // as a failed QR iteration is.
    if (std::isnan(m)) return std::numeric_limits<double>::infinity();
    best = std::max(best, m);
  }
  return best;
}

bool is_schur_stable(const Matrix& a, double margin) {
  return spectral_radius(a) < 1.0 - margin;
}

}  // namespace catsched::linalg
