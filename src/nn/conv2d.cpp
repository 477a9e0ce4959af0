#include "rlattack/nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "rlattack/nn/init.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::nn {

namespace {

// Per-thread im2col / col2im scratch, cached across calls (and across Conv2D
// instances — resized up as needed, never shrunk below capacity).
thread_local std::vector<float> tl_col;
thread_local std::vector<float> tl_dcol;

struct ConvGeom {
  std::size_t in_c, h, w, k, stride, pad, oh, ow;
};

// Lowers one [C, H, W] item into col[C*k*k, OH*OW]: row (ic, ky, kx) holds
// the input value each output position reads through that kernel tap, with
// zeros where the tap falls in the padding.
void im2col(const ConvGeom& g, const float* x, float* col) {
  const std::size_t ohow = g.oh * g.ow;
  float* crow = col;
  for (std::size_t ic = 0; ic < g.in_c; ++ic) {
    const float* xplane = x + ic * g.h * g.w;
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx, crow += ohow) {
        // Valid ox range: 0 <= ox*stride + kx - pad < w.
        const std::size_t ox_lo =
            kx >= g.pad ? 0 : (g.pad - kx + g.stride - 1) / g.stride;
        const std::size_t ox_hi =
            g.w + g.pad > kx
                ? std::min(g.ow, (g.w - 1 + g.pad - kx) / g.stride + 1)
                : 0;
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          float* dst = crow + oy * g.ow;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.h)) {
            std::memset(dst, 0, g.ow * sizeof(float));
            continue;
          }
          const float* xrow = xplane + static_cast<std::size_t>(iy) * g.w;
          std::size_t ox = 0;
          for (; ox < ox_lo; ++ox) dst[ox] = 0.0f;
          if (g.stride == 1) {
            if (ox_hi > ox_lo)
              std::memcpy(dst + ox_lo, xrow + ox_lo + kx - g.pad,
                          (ox_hi - ox_lo) * sizeof(float));
            ox = std::max(ox, ox_hi);
          } else {
            for (; ox < ox_hi; ++ox)
              dst[ox] = xrow[ox * g.stride + kx - g.pad];
          }
          for (; ox < g.ow; ++ox) dst[ox] = 0.0f;
        }
      }
    }
  }
}

// Scatters dcol[C*k*k, OH*OW] back into the [C, H, W] input gradient,
// accumulating where receptive fields overlap. Exact adjoint of im2col.
void col2im_accumulate(const ConvGeom& g, const float* dcol, float* gx) {
  const std::size_t ohow = g.oh * g.ow;
  const float* crow = dcol;
  for (std::size_t ic = 0; ic < g.in_c; ++ic) {
    float* gxplane = gx + ic * g.h * g.w;
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      for (std::size_t kx = 0; kx < g.k; ++kx, crow += ohow) {
        const std::size_t ox_lo =
            kx >= g.pad ? 0 : (g.pad - kx + g.stride - 1) / g.stride;
        const std::size_t ox_hi =
            g.w + g.pad > kx
                ? std::min(g.ow, (g.w - 1 + g.pad - kx) / g.stride + 1)
                : 0;
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          const float* src = crow + oy * g.ow;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.h)) continue;
          float* gxrow = gxplane + static_cast<std::size_t>(iy) * g.w;
          for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
            gxrow[ox * g.stride + kx - g.pad] += src[ox];
        }
      }
    }
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  if (kernel == 0 || stride == 0)
    throw std::logic_error("Conv2D: kernel and stride must be >= 1");
  he_uniform(weight_, in_c_ * k_ * k_, rng);
}

std::size_t Conv2D::out_extent(std::size_t in_extent) const {
  const std::size_t padded = in_extent + 2 * pad_;
  if (padded < k_)
    throw std::logic_error("Conv2D: input smaller than kernel");
  return (padded - k_) / stride_ + 1;
}

Tensor Conv2D::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_c_)
    throw std::logic_error("Conv2D::forward: expected [B, " +
                           std::to_string(in_c_) + ", H, W], got " +
                           input.shape_string());
  cached_input_ = input;
  const std::size_t batch = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  // Reusable output buffer: grow-only storage, reshaped in place when the
  // geometry changes (episode-batched inference shrinks the batch extent as
  // episodes retire; reallocating per flush would churn the allocator).
  // Every element is overwritten below (bias fill + GEMM), so no zeroing.
  if (out_buf_.rank() != 4 || out_buf_.dim(0) != batch ||
      out_buf_.dim(2) != oh || out_buf_.dim(3) != ow)
    out_buf_.resize({batch, out_c_, oh, ow});

  const ConvGeom geom{in_c_, h, w, k_, stride_, pad_, oh, ow};
  const std::size_t ckk = in_c_ * k_ * k_;
  const std::size_t ohow = oh * ow;
  const float* x = input.raw();
  float* y = out_buf_.raw();
  // One im2col + GEMM per batch item; items are independent, so the batch
  // fans out over the pool (the nested sgemm then runs inline per worker).
  util::ThreadPool::global().parallel_for(
      batch, /*grain=*/1, [&](std::size_t b0, std::size_t b1) {
        tl_col.resize(ckk * ohow);
        for (std::size_t b = b0; b < b1; ++b) {
          im2col(geom, x + b * in_c_ * h * w, tl_col.data());
          float* yb = y + b * out_c_ * ohow;
          for (std::size_t oc = 0; oc < out_c_; ++oc)
            std::fill(yb + oc * ohow, yb + (oc + 1) * ohow, bias_[oc]);
          // [out_c, OH*OW] += [out_c, C*k*k] x [C*k*k, OH*OW]
          kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kNo, out_c_,
                         ohow, ckk, weight_.raw(), ckk, tl_col.data(), ohow,
                         yb, ohow, /*accumulate=*/true);
        }
      });
  return out_buf_;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  return backward_pass(grad_output, /*param_grads=*/true);
}

Tensor Conv2D::backward_input(const Tensor& grad_output) {
  return backward_pass(grad_output, /*param_grads=*/false);
}

Tensor Conv2D::backward_pass(const Tensor& grad_output, bool param_grads) {
  const std::size_t batch = cached_input_.dim(0), h = cached_input_.dim(2),
                    w = cached_input_.dim(3);
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_c_ || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow)
    throw std::logic_error("Conv2D::backward: gradient shape mismatch " +
                           grad_output.shape_string());

  Tensor grad_input({batch, in_c_, h, w});
  const ConvGeom geom{in_c_, h, w, k_, stride_, pad_, oh, ow};
  const std::size_t ckk = in_c_ * k_ * k_;
  const std::size_t ohow = oh * ow;
  const float* x = cached_input_.raw();
  const float* g = grad_output.raw();
  float* gx = grad_input.raw();

  // Weight/bias gradients are shared across batch items, so each chunk
  // accumulates into its own buffer and the chunks are reduced in index
  // order afterwards. Chunk layout depends only on (batch, grain), keeping
  // the result bit-identical for every RLATTACK_THREADS setting. The input
  // gradient is per item, so the input-only pass allocates no chunks.
  auto& pool = util::ThreadPool::global();
  const std::size_t grain = 4;
  std::vector<Tensor> gw_chunks, gb_chunks;
  if (param_grads) {
    const std::size_t nchunks = util::ThreadPool::chunk_count(batch, grain);
    gw_chunks.assign(nchunks, Tensor({out_c_, ckk}));
    gb_chunks.assign(nchunks, Tensor({out_c_}));
  }
  pool.parallel_for_chunks(
      batch, grain,
      [&](std::size_t chunk, std::size_t b0, std::size_t b1) {
        tl_dcol.resize(ckk * ohow);
        if (param_grads) tl_col.resize(ckk * ohow);
        for (std::size_t b = b0; b < b1; ++b) {
          const float* gb_plane = g + b * out_c_ * ohow;
          if (param_grads) {
            float* gw_acc = gw_chunks[chunk].raw();
            float* gb_acc = gb_chunks[chunk].raw();
            im2col(geom, x + b * in_c_ * h * w, tl_col.data());
            for (std::size_t oc = 0; oc < out_c_; ++oc) {
              const float* row = gb_plane + oc * ohow;
              float s = 0.0f;
              for (std::size_t i = 0; i < ohow; ++i) s += row[i];
              gb_acc[oc] += s;
            }
            // dW += g_b col^T : [out_c, C*k*k]
            kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kYes, out_c_,
                           ckk, ohow, gb_plane, ohow, tl_col.data(), ohow,
                           gw_acc, ckk, /*accumulate=*/true);
          }
          // dcol = W^T g_b : [C*k*k, OH*OW], then scatter back to the input.
          kernels::sgemm(kernels::Trans::kYes, kernels::Trans::kNo, ckk, ohow,
                         out_c_, weight_.raw(), ckk, gb_plane, ohow,
                         tl_dcol.data(), ohow, /*accumulate=*/false);
          col2im_accumulate(geom, tl_dcol.data(), gx + b * in_c_ * h * w);
        }
      });
  for (std::size_t c = 0; c < gw_chunks.size(); ++c) {
    grad_weight_ += gw_chunks[c].reshaped({out_c_, in_c_, k_, k_});
    grad_bias_ += gb_chunks[c];
  }
  return grad_input;
}

std::vector<Param> Conv2D::params() {
  return {{&weight_, &grad_weight_, "conv.weight"},
          {&bias_, &grad_bias_, "conv.bias"}};
}

MaxPool2D::MaxPool2D(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride) {
  if (window == 0 || stride == 0)
    throw std::logic_error("MaxPool2D: window and stride must be >= 1");
}

Tensor MaxPool2D::forward(const Tensor& input) {
  if (input.rank() != 4)
    throw std::logic_error("MaxPool2D::forward: expected [B, C, H, W], got " +
                           input.shape_string());
  cached_input_ = input;
  const std::size_t batch = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  if (h < window_ || w < window_)
    throw std::logic_error("MaxPool2D: input smaller than window");
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;
  Tensor out({batch, c, oh, ow});
  argmax_.assign(out.size(), 0);

  const float* x = input.raw();
  float* y = out.raw();
  std::size_t oi = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x + (b * c + ch) * h * w;
      const std::size_t plane_base = (b * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t idx =
                  (oy * stride_ + ky) * w + (ox * stride_ + kx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          y[oi] = best;
          argmax_[oi] = plane_base + best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (grad_output.size() != argmax_.size())
    throw std::logic_error("MaxPool2D::backward: gradient size mismatch");
  Tensor grad_input(cached_input_.shape());
  const float* g = grad_output.raw();
  float* gx = grad_input.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gx[argmax_[i]] += g[i];
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  if (input.rank() <= 1) return input;
  std::size_t rest = 1;
  for (std::size_t d = 1; d < input.rank(); ++d) rest *= input.dim(d);
  return input.reshaped({input.dim(0), rest});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

Reshape::Reshape(std::vector<std::size_t> item_shape)
    : item_shape_(std::move(item_shape)) {
  if (item_shape_.empty())
    throw std::logic_error("Reshape: empty item shape");
}

Tensor Reshape::forward(const Tensor& input) {
  if (input.rank() < 1)
    throw std::logic_error("Reshape::forward: rank-0 input");
  cached_shape_ = input.shape();
  std::vector<std::size_t> out{input.dim(0)};
  out.insert(out.end(), item_shape_.begin(), item_shape_.end());
  return input.reshaped(std::move(out));
}

Tensor Reshape::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

}  // namespace rlattack::nn
